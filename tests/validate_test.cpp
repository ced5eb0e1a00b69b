#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/review_summarizer.h"
#include "ontology/cellphone_hierarchy.h"
#include "validate/model_validator.h"
#include "validate/validation_report.h"

namespace osrs {
namespace {

bool HasCode(const ValidationReport& report, const std::string& code) {
  for (const ValidationFinding& finding : report.findings()) {
    if (finding.code == code) return true;
  }
  return false;
}

size_t CountCode(const ValidationReport& report, const std::string& code) {
  size_t n = 0;
  for (const ValidationFinding& finding : report.findings()) {
    if (finding.code == code) ++n;
  }
  return n;
}

/// root -> {battery, screen}, battery -> life: a clean 4-concept DAG.
OntologySpec CleanSpec() {
  OntologySpec spec;
  spec.names = {"phone", "battery", "screen", "life"};
  spec.edges = {{0, 1}, {0, 2}, {1, 3}};
  return spec;
}

Item CleanItem() {
  Item item;
  item.id = "phone-1";
  Review review;
  review.rating = 0.5;
  review.sentences.push_back({"battery lasts", {{1, 0.8}}});
  review.sentences.push_back({"screen is dim", {{2, -0.4}}});
  item.reviews.push_back(review);
  return item;
}

// ------------------------------------------------------------- ontology

TEST(ModelValidatorTest, CleanSpecProducesEmptyReport) {
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckOntologySpec(CleanSpec(), &report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(report.ToString(), "clean");
}

TEST(ModelValidatorTest, DetectsCycle) {
  OntologySpec spec = CleanSpec();
  spec.edges.push_back({3, 1});  // life -> battery closes battery->life->battery
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckOntologySpec(spec, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-001"));
}

TEST(ModelValidatorTest, DetectsRootUnreachableConcept) {
  // 'island-a' and 'island-b' feed each other, so neither is parentless
  // and the root cannot reach them: both unreachable, plus a cycle.
  OntologySpec spec;
  spec.names = {"root", "island-a", "island-b"};
  spec.edges = {{1, 2}, {2, 1}};
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckOntologySpec(spec, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-001"));
  EXPECT_EQ(CountCode(report, "OSRS-ONT-002"), 2u);
}

TEST(ModelValidatorTest, DetectsDuplicateAndSelfEdges) {
  OntologySpec spec = CleanSpec();
  spec.edges.push_back({0, 1});  // duplicate of phone -> battery
  spec.edges.push_back({2, 2});  // self edge on screen
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckOntologySpec(spec, &report);
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-003"));
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-004"));
  EXPECT_EQ(report.warning_count(), 1u);  // the duplicate
  EXPECT_EQ(report.error_count(), 1u);    // the self edge
}

TEST(ModelValidatorTest, DetectsMultipleRootsAndOutOfRangeEdges) {
  OntologySpec spec;
  spec.names = {"root-a", "root-b", "child"};
  spec.edges = {{0, 2}, {0, 9}};  // 9 does not exist; root-b is a second root
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckOntologySpec(spec, &report);
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-005"));
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-008"));
}

TEST(ModelValidatorTest, WarnsOnExcessiveDepth) {
  OntologySpec spec;
  for (int i = 0; i < 6; ++i) spec.names.push_back("c" + std::to_string(i));
  for (int i = 0; i + 1 < 6; ++i) spec.edges.push_back({i, i + 1});
  ModelValidatorOptions options;
  options.max_depth = 3;
  ModelValidator validator(options);
  ValidationReport report = validator.MakeReport();
  validator.CheckOntologySpec(spec, &report);
  EXPECT_TRUE(report.ok());  // depth is a warning, not an error
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-006"));
}

TEST(ModelValidatorTest, FinalizedOntologyChecksClean) {
  Ontology onto = BuildCellPhoneHierarchy();
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckOntology(onto, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

// --------------------------------------------------------------- corpus

TEST(ModelValidatorTest, CleanItemProducesEmptyReport) {
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckItem(CleanItem(), /*num_concepts=*/4, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(ModelValidatorTest, DetectsDanglingConceptReference) {
  Item item = CleanItem();
  item.reviews[0].sentences[0].pairs.push_back({42, 0.1});
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckItem(item, /*num_concepts=*/4, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-001"));
}

TEST(ModelValidatorTest, DetectsNaNAndOutOfRangeSentiment) {
  Item item = CleanItem();
  item.reviews[0].sentences[0].pairs[0].sentiment =
      std::numeric_limits<double>::quiet_NaN();
  item.reviews[0].sentences[1].pairs[0].sentiment = 1.5;
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckItem(item, /*num_concepts=*/4, &report);
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-002"));
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-003"));
  EXPECT_EQ(report.error_count(), 2u);
}

TEST(ModelValidatorTest, WarnsOnEmptyReviewsAndItems) {
  Item empty_item;
  empty_item.id = "ghost";
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckItem(empty_item, /*num_concepts=*/4, &report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-006"));

  Item item = CleanItem();
  item.reviews.emplace_back();  // review with no sentences
  ValidationReport report2 = validator.MakeReport();
  validator.CheckItem(item, /*num_concepts=*/4, &report2);
  EXPECT_TRUE(HasCode(report2, "OSRS-CRP-005"));
}

TEST(ModelValidatorTest, DetectsDuplicateItemIds) {
  std::vector<Item> items = {CleanItem(), CleanItem()};
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckItems(items, /*num_concepts=*/4, &report);
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-007"));
}

TEST(ModelValidatorTest, DetectsDanglingGroupIndexAndDoubleMembership) {
  // Group 1 = [2, 1) starts inside group 0 = [0, 2), so pair 1 belongs to
  // both, and group 2 = [1, 7) runs past pair 3 of 3.
  std::vector<int> group_begin = {0, 2, 1, 7};
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckGroups(group_begin, /*num_pairs=*/3, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-009"));
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-010"));

  ValidationReport clean = validator.MakeReport();
  validator.CheckGroups({0, 1, 3}, /*num_pairs=*/3, &clean);
  EXPECT_TRUE(clean.ok());
}

// --------------------------------------------------------------- solver

TEST(ModelValidatorTest, SolverPreconditions) {
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  validator.CheckSolverConfig(/*k=*/-1, /*epsilon=*/0.5,
                              /*num_candidates=*/10, &report);
  EXPECT_TRUE(HasCode(report, "OSRS-SLV-001"));

  ValidationReport report2 = validator.MakeReport();
  validator.CheckSolverConfig(/*k=*/20, /*epsilon=*/0.0,
                              /*num_candidates=*/10, &report2);
  EXPECT_TRUE(HasCode(report2, "OSRS-SLV-002"));
  EXPECT_TRUE(HasCode(report2, "OSRS-SLV-003"));

  ValidationReport report3 = validator.MakeReport();
  validator.CheckSolverConfig(/*k=*/2, /*epsilon=*/5.0,
                              /*num_candidates=*/10, &report3);
  EXPECT_TRUE(report3.ok());
  EXPECT_TRUE(HasCode(report3, "OSRS-SLV-004"));
}

// ---------------------------------------------------- whole-file lenient

TEST(ModelValidatorTest, ValidateCorpusTextFlagsCycleAndDanglingPair) {
  const char* corpus =
      "# osrs-corpus v1\n"
      "D\tcellphone\n"
      "O\t# osrs-ontology v1|C\t0\tphone|C\t1\tbattery|C\t2\tlife"
      "|E\t0\t1|E\t1\t2|E\t2\t1\n"
      "I\titem-a\n"
      "R\t0.5\n"
      "S\tBattery life is great.\t1:0.8\t9:0.5\n";
  ModelValidator validator;
  ValidationReport report = validator.ValidateCorpusText(corpus);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "OSRS-ONT-001"));
  EXPECT_TRUE(HasCode(report, "OSRS-CRP-001"));
}

TEST(ModelValidatorTest, ValidateCorpusTextAcceptsCleanCorpus) {
  const char* corpus =
      "# osrs-corpus v1\n"
      "D\tcellphone\n"
      "O\t# osrs-ontology v1|C\t0\tphone|C\t1\tbattery|E\t0\t1\n"
      "I\titem-a\n"
      "R\t0.5\n"
      "S\tBattery is great.\t1:0.8\n";
  ModelValidator validator;
  ValidationReport report = validator.ValidateCorpusText(corpus);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(ModelValidatorTest, ValidateCorpusTextFlagsFormatProblems) {
  const char* corpus =
      "# osrs-corpus v1\n"
      "O\t# osrs-ontology v1|C\t0\tphone\n"
      "R\t0.5\n"         // before any item
      "X\tmystery\n"     // unknown kind
      "no-payload\n";    // record without a tab
  ModelValidator validator;
  ValidationReport report = validator.ValidateCorpusText(corpus);
  EXPECT_TRUE(HasCode(report, "OSRS-FMT-001"));
  EXPECT_TRUE(HasCode(report, "OSRS-FMT-002"));
  EXPECT_TRUE(HasCode(report, "OSRS-FMT-003"));
}

TEST(ModelValidatorTest, ValidateOntologyTextRoundTripsSerializedOntology) {
  Ontology onto = BuildCellPhoneHierarchy();
  ModelValidator validator;
  ValidationReport report = validator.ValidateOntologyText(onto.Serialize());
  EXPECT_TRUE(report.empty()) << report.ToString();
}

// ----------------------------------------------------- ValidationReport

TEST(ValidationReportTest, RendersFindingsAndJson) {
  ValidationReport report;
  report.AddError("OSRS-ONT-001", "edge 1->2", "cycle detected");
  report.AddWarning("OSRS-CRP-006", "item 'x'", "item has no reviews");
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_FALSE(report.ok());
  std::string text = report.ToString();
  EXPECT_NE(text.find("error OSRS-ONT-001 [edge 1->2]: cycle detected"),
            std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"OSRS-CRP-006\""), std::string::npos);
}

TEST(ValidationReportTest, CapsStoredFindingsButKeepsCounting) {
  ValidationReport report(/*max_findings=*/2);
  for (int i = 0; i < 5; ++i) {
    report.AddError("OSRS-CRP-001", "", "dangling");
  }
  EXPECT_EQ(report.findings().size(), 2u);
  EXPECT_EQ(report.error_count(), 5u);
  EXPECT_EQ(report.dropped(), 3u);
  EXPECT_FALSE(report.ok());
}

TEST(ValidationReportTest, MergePreservesTallies) {
  ValidationReport a(/*max_findings=*/1);
  a.AddError("OSRS-CRP-001", "", "one");
  a.AddWarning("OSRS-CRP-006", "", "two");  // dropped by a's cap
  ValidationReport b;
  b.AddWarning("OSRS-SLV-002", "", "three");
  b.Merge(a);
  EXPECT_EQ(b.error_count(), 1u);
  EXPECT_EQ(b.warning_count(), 2u);
  EXPECT_GE(b.dropped(), 1u);
}

// ------------------------------------------------------- strict facade

TEST(StrictValidationTest, DanglingConceptFailsWithReport) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.strict_validation = true;
  ReviewSummarizer summarizer(&onto, options);
  Item item = CleanItem();
  item.reviews[0].sentences[0].pairs.push_back({9999, 0.2});
  auto summary = summarizer.Summarize(item, 2);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(summary.status().message().find("OSRS-CRP-001"),
            std::string::npos);
}

TEST(StrictValidationTest, WarningsLandOnItemSummary) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.strict_validation = true;
  ReviewSummarizer summarizer(&onto, options);
  // k far beyond the candidate count: valid, but strict mode reports the
  // OSRS-SLV-002 truncation warning on the summary.
  auto summary = summarizer.Summarize(CleanItem(), 50);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_FALSE(summary->validation_warnings.empty());
  EXPECT_NE(summary->validation_warnings[0].find("OSRS-SLV-002"),
            std::string::npos);
  // The warnings travel into the JSON rendering as well.
  EXPECT_NE(summary->ToJson().find("OSRS-SLV-002"), std::string::npos);
}

TEST(StrictValidationTest, CleanItemPassesWithNoWarnings) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.strict_validation = true;
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(CleanItem(), 2);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->validation_warnings.empty());
}

}  // namespace
}  // namespace osrs
