#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/strings.h"

#include "datagen/cellphone_corpus.h"
#include "datagen/corpus_io.h"
#include "fault/failpoint.h"
#include "ontology/cellphone_hierarchy.h"

namespace osrs {
namespace {

Corpus SmallCorpus() {
  CellPhoneCorpusOptions options;
  options.scale = 0.02;  // 1 phone, ~670 reviews
  return GenerateCellPhoneCorpus(options);
}

TEST(CorpusIoTest, RoundTripPreservesEverything) {
  Corpus corpus = SmallCorpus();
  auto serialized = SaveCorpus(corpus);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  auto restored = LoadCorpus(*serialized);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->domain, corpus.domain);
  EXPECT_EQ(restored->ontology.num_concepts(),
            corpus.ontology.num_concepts());
  EXPECT_EQ(restored->ontology.Serialize(), corpus.ontology.Serialize());
  ASSERT_EQ(restored->items.size(), corpus.items.size());
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    const Item& a = corpus.items[i];
    const Item& b = restored->items[i];
    EXPECT_EQ(a.id, b.id);
    ASSERT_EQ(a.reviews.size(), b.reviews.size());
    for (size_t r = 0; r < a.reviews.size(); ++r) {
      EXPECT_DOUBLE_EQ(a.reviews[r].rating, b.reviews[r].rating);
      ASSERT_EQ(a.reviews[r].sentences.size(), b.reviews[r].sentences.size());
      for (size_t s = 0; s < a.reviews[r].sentences.size(); ++s) {
        const Sentence& sa = a.reviews[r].sentences[s];
        const Sentence& sb = b.reviews[r].sentences[s];
        EXPECT_EQ(sa.text, sb.text);
        ASSERT_EQ(sa.pairs.size(), sb.pairs.size());
        for (size_t p = 0; p < sa.pairs.size(); ++p) {
          EXPECT_EQ(sa.pairs[p].concept_id, sb.pairs[p].concept_id);
          EXPECT_DOUBLE_EQ(sa.pairs[p].sentiment, sb.pairs[p].sentiment);
        }
      }
    }
  }
}

TEST(CorpusIoTest, FileRoundTrip) {
  Corpus corpus = SmallCorpus();
  std::string path = testing::TempDir() + "/osrs_corpus_io_test.tsv";
  ASSERT_TRUE(SaveCorpusToFile(corpus, path).ok());
  auto restored = LoadCorpusFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->items.size(), corpus.items.size());
  std::remove(path.c_str());
}

TEST(CorpusIoTest, FailedWriteLeavesPreviousFileIntact) {
  // WriteTextFile goes through the durability layer's atomic temp + fsync
  // + rename (store/atomic_file.h), so a failure at ANY stage of the
  // write must leave the previous contents observable — a torn corpus
  // file can no longer exist. Inject a failure at each store-level stage
  // and re-read the original after every one.
  std::string path = testing::TempDir() + "/osrs_corpus_atomic.tsv";
  ASSERT_TRUE(WriteTextFile(path, "original contents\n").ok());

  for (const char* site :
       {"osrs.store.write", "osrs.store.fsync", "osrs.store.rename"}) {
    SCOPED_TRACE(site);
    fault::FailpointSpec spec;
    spec.code = StatusCode::kUnavailable;
    spec.trigger = fault::FailTrigger::kOnce;
    fault::FailpointRegistry::Global().Get(site)->Arm(spec);
    Status failed = WriteTextFile(path, "replacement that must not land\n");
    fault::FailpointRegistry::Global().DisarmAll();
    ASSERT_FALSE(failed.ok());

    auto contents = ReadTextFile(path);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_EQ(*contents, "original contents\n")
        << "failed write tore the previous file";
  }

  // And once the fault clears, the replacement goes through whole.
  ASSERT_TRUE(WriteTextFile(path, "second version\n").ok());
  auto contents = ReadTextFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "second version\n");
  std::remove(path.c_str());
}

TEST(CorpusIoTest, MissingFileFails) {
  auto result = LoadCorpusFromFile("/nonexistent/osrs/corpus.tsv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CorpusIoTest, UnreadableFileIsRetryableWithErrnoContext) {
  // A directory opens fine but fails on the first read (EISDIR), the same
  // shape as a disk error mid-file: kUnavailable — retryable, unlike the
  // permanent kNotFound of a missing path — with strerror/errno context.
  auto result = LoadCorpusFromFile(testing::TempDir());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(StatusCodeIsRetryable(result.status().code()));
  EXPECT_NE(result.status().message().find("errno"), std::string::npos)
      << result.status().ToString();
}

TEST(CorpusIoTest, TruncatedFileNamesTheFailingLine) {
  Corpus corpus = SmallCorpus();
  auto serialized = SaveCorpus(corpus);
  ASSERT_TRUE(serialized.ok());
  // Cut the file mid-pair: the last "concept:sentiment" field loses its
  // ':' and everything after, as if the writer died mid-flush.
  std::string truncated = *serialized;
  size_t cut = truncated.rfind(':');
  ASSERT_NE(cut, std::string::npos);
  truncated.resize(cut);
  int64_t bad_line = 1;
  for (char c : truncated) {
    if (c == '\n') ++bad_line;
  }
  std::string path = testing::TempDir() + "/osrs_corpus_truncated.tsv";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fwrite(truncated.data(), 1, truncated.size(), file);
  std::fclose(file);

  auto result = LoadCorpusFromFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::string expected = StrFormat("line %lld:",
                                   static_cast<long long>(bad_line));
  EXPECT_NE(result.status().message().find(expected), std::string::npos)
      << "message: " << result.status().ToString()
      << " expected prefix: " << expected;
  std::remove(path.c_str());
}

TEST(CorpusIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(LoadCorpus("Z\tgarbage\n").ok());
  EXPECT_FALSE(LoadCorpus("D\tphone\n").ok());  // no ontology
  EXPECT_FALSE(LoadCorpus("R\t0.5\n").ok());    // review before item
  // Sentence before review.
  Corpus corpus = SmallCorpus();
  std::string onto = corpus.ontology.Serialize();
  for (char& c : onto) {
    if (c == '\n') c = '|';
  }
  EXPECT_FALSE(LoadCorpus("O\t" + onto + "\nI\tx\nS\thello\n").ok());
  // Pair referencing an unknown concept.
  EXPECT_FALSE(
      LoadCorpus("O\t" + onto + "\nI\tx\nR\t0\nS\thi\t99999:0.5\n").ok());
}

TEST(CorpusIoTest, RejectsUnserializableText) {
  Corpus corpus;
  corpus.domain = "phone";
  corpus.ontology = BuildCellPhoneHierarchy();
  Item item;
  item.id = "x";
  Review review;
  review.sentences.push_back({"tab\there", {}});
  item.reviews.push_back(review);
  corpus.items.push_back(item);
  EXPECT_FALSE(SaveCorpus(corpus).ok());
}

TEST(CorpusIoTest, EmptyCorpusNeedsOntology) {
  Corpus corpus;
  corpus.domain = "phone";
  EXPECT_FALSE(SaveCorpus(corpus).ok());  // unfinalized ontology
  corpus.ontology = BuildCellPhoneHierarchy();
  auto serialized = SaveCorpus(corpus);
  ASSERT_TRUE(serialized.ok());
  auto restored = LoadCorpus(*serialized);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->items.empty());
}

}  // namespace
}  // namespace osrs
