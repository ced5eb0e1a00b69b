#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/annotator.h"
#include "api/review_summarizer.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/doctor_corpus.h"
#include "ontology/cellphone_hierarchy.h"

namespace osrs {
namespace {

Item SmallItem(const Ontology& onto) {
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  ConceptId price = onto.FindByName("price");
  Item item;
  item.id = "phone-x";
  Review r1;
  r1.sentences.push_back({"screen is great", {{screen, 0.75}}});
  r1.sentences.push_back({"battery is awful", {{battery, -0.9}}});
  Review r2;
  r2.sentences.push_back({"price is decent", {{price, 0.35}}});
  r2.sentences.push_back({"screen is nice", {{screen, 0.5}}});
  item.reviews = {r1, r2};
  return item;
}

// --------------------------------------------------------- ReviewSummarizer

TEST(ReviewSummarizerTest, PairGranularityRendersConceptSentiment) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.granularity = SummaryGranularity::kPairs;
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->entries.size(), 2u);
  EXPECT_NE(summary->entries[0].display.find("="), std::string::npos);
  EXPECT_GE(summary->entries[0].review_index, 0);
  EXPECT_EQ(summary->num_pairs, 4u);
}

TEST(ReviewSummarizerTest, SentenceGranularityReturnsSentenceText) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizer summarizer(&onto, {});
  auto summary = summarizer.Summarize(SmallItem(onto), 3);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->entries.size(), 3u);
  std::set<std::string> texts;
  for (const auto& entry : summary->entries) {
    texts.insert(entry.display);
    EXPECT_GE(entry.sentence_index, 0);
  }
  // Greedy should cover all three aspects rather than repeat "screen".
  EXPECT_TRUE(texts.count("screen is great") || texts.count("screen is nice"));
  EXPECT_TRUE(texts.count("battery is awful"));
  EXPECT_TRUE(texts.count("price is decent"));
}

TEST(ReviewSummarizerTest, ReviewGranularitySelectsReviews) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.granularity = SummaryGranularity::kReviews;
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->entries.size(), 2u);
  std::set<int> reviews;
  for (const auto& entry : summary->entries) {
    reviews.insert(entry.review_index);
    EXPECT_EQ(entry.sentence_index, -1);
  }
  EXPECT_EQ(reviews.size(), 2u);
}

TEST(ReviewSummarizerTest, AllAlgorithmsAgreeOnCostOrdering) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = SmallItem(onto);
  double ilp_cost = 0.0;
  for (SummaryAlgorithm algorithm :
       {SummaryAlgorithm::kIlp, SummaryAlgorithm::kGreedy,
        SummaryAlgorithm::kGreedyLazy, SummaryAlgorithm::kRandomizedRounding}) {
    ReviewSummarizerOptions options;
    options.algorithm = algorithm;
    options.granularity = SummaryGranularity::kPairs;
    ReviewSummarizer summarizer(&onto, options);
    auto summary = summarizer.Summarize(item, 2);
    ASSERT_TRUE(summary.ok()) << SummaryAlgorithmToString(algorithm);
    if (algorithm == SummaryAlgorithm::kIlp) {
      ilp_cost = summary->cost;
    } else {
      EXPECT_GE(summary->cost, ilp_cost - 1e-9)
          << SummaryAlgorithmToString(algorithm);
    }
  }
}

TEST(ReviewSummarizerTest, KExceedingCandidatesTruncates) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizer summarizer(&onto, {});
  auto summary = summarizer.Summarize(SmallItem(onto), 100);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->entries.size(), 4u);  // 4 sentences with pairs
  EXPECT_FALSE(summarizer.Summarize(SmallItem(onto), -1).ok());
}

TEST(ReviewSummarizerTest, EmptyItem) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizer summarizer(&onto, {});
  Item item;
  item.id = "empty";
  auto summary = summarizer.Summarize(item, 3);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->entries.empty());
  EXPECT_DOUBLE_EQ(summary->cost, 0.0);
}

TEST(ReviewSummarizerTest, AutoEpsilonPicksFromGrid) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.auto_epsilon = true;
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(summary.ok());
  // The chosen epsilon is one of the default grid values.
  bool on_grid = false;
  for (double eps : {0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.2, 1.6, 2.0}) {
    if (std::abs(summary->epsilon - eps) < 1e-12) on_grid = true;
  }
  EXPECT_TRUE(on_grid) << summary->epsilon;
  // Without auto selection the configured epsilon is reported back.
  ReviewSummarizer fixed(&onto, {});
  auto fixed_summary = fixed.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(fixed_summary.ok());
  EXPECT_DOUBLE_EQ(fixed_summary->epsilon, 0.5);
}

TEST(ReviewSummarizerTest, ToJsonIsWellFormed) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizer summarizer(&onto, {});
  auto summary = summarizer.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(summary.ok());
  std::string json = summary->ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"cost\":"), std::string::npos);
  EXPECT_NE(json.find("\"entries\":["), std::string::npos);
  // Balanced braces/brackets and no raw control characters.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReviewSummarizerTest, ToJsonEscapesSpecialCharacters) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item;
  item.id = "x";
  Review review;
  review.sentences.push_back(
      {"he said \"great\" \\ phone", {{onto.FindByName("screen"), 0.5}}});
  item.reviews.push_back(review);
  ReviewSummarizer summarizer(&onto, {});
  auto summary = summarizer.Summarize(item, 1);
  ASSERT_TRUE(summary.ok());
  std::string json = summary->ToJson();
  EXPECT_NE(json.find("\\\"great\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
}

// -------------------------------------------------------------- Annotator

TEST(AnnotatorTest, AnnotatesFromText) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewAnnotator annotator(&onto, SentimentEstimator::LexiconOnly());
  auto item = annotator.AnnotateTexts(
      "phone-y",
      {"The battery life is excellent. The speaker is terrible!",
       "Shipping was fast."},
      {0.5, 0.8});
  ASSERT_TRUE(item.ok());
  ASSERT_EQ(item->reviews.size(), 2u);
  ASSERT_EQ(item->reviews[0].sentences.size(), 2u);
  const auto& s0 = item->reviews[0].sentences[0];
  ASSERT_EQ(s0.pairs.size(), 1u);
  EXPECT_EQ(s0.pairs[0].concept_id, onto.FindByName("battery life"));
  EXPECT_GT(s0.pairs[0].sentiment, 0.5);
  const auto& s1 = item->reviews[0].sentences[1];
  ASSERT_EQ(s1.pairs.size(), 1u);
  EXPECT_EQ(s1.pairs[0].concept_id, onto.FindByName("speaker"));
  EXPECT_LT(s1.pairs[0].sentiment, -0.5);
  EXPECT_DOUBLE_EQ(item->reviews[1].rating, 0.8);
}

TEST(AnnotatorTest, RejectsMismatchedRatings) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewAnnotator annotator(&onto, SentimentEstimator::LexiconOnly());
  EXPECT_FALSE(annotator.AnnotateTexts("x", {"a. b."}, {0.1, 0.2}).ok());
}

TEST(AnnotatorTest, ReannotationOverwritesPairs) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = SmallItem(onto);
  // Poison the pairs; annotation must rebuild them from text.
  item.reviews[0].sentences[0].pairs = {{onto.FindByName("gps"), -1.0}};
  ReviewAnnotator annotator(&onto, SentimentEstimator::LexiconOnly());
  ASSERT_TRUE(annotator.Annotate(item).ok());
  const auto& pairs = item.reviews[0].sentences[0].pairs;
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].concept_id, onto.FindByName("screen"));
  EXPECT_GT(pairs[0].sentiment, 0.0);
}

/// Review texts of `corpus`'s items: the generated sentences, each followed
/// by ". ".
std::vector<std::vector<std::string>> CorpusTexts(const Corpus& corpus) {
  std::vector<std::vector<std::string>> texts;
  for (const Item& item : corpus.items) {
    std::vector<std::string> reviews;
    for (const Review& review : item.reviews) {
      std::string text;
      for (const Sentence& sentence : review.sentences) {
        text += sentence.text + ". ";
      }
      reviews.push_back(std::move(text));
    }
    texts.push_back(std::move(reviews));
  }
  return texts;
}

// Two const annotators over different ontologies shared by four threads;
// each thread interleaves them item by item, starting at a different item
// so the threads' token memos fill in different orders: every thread's
// pairs are bit-identical to a single-threaded pass. (ci.sh runs this
// under TSan.)
TEST(AnnotatorTest, SharedAnnotatorMatchesSingleThreadedPass) {
  DoctorCorpusOptions doctor_options;
  doctor_options.scale = 0.02;
  Corpus doctor = GenerateDoctorCorpus(doctor_options);
  CellPhoneCorpusOptions phone_options;
  phone_options.scale = 0.01;
  Corpus phone = GenerateCellPhoneCorpus(phone_options);
  const std::vector<std::vector<std::string>> doctor_texts =
      CorpusTexts(doctor);
  const std::vector<std::vector<std::string>> phone_texts =
      CorpusTexts(phone);
  const ReviewAnnotator doctor_annotator(&doctor.ontology,
                                         SentimentEstimator::LexiconOnly());
  const ReviewAnnotator phone_annotator(&phone.ontology,
                                        SentimentEstimator::LexiconOnly());
  using ItemPairs = std::vector<std::pair<ConceptId, uint64_t>>;
  auto pairs_of = [](const Item& item) {
    ItemPairs out;
    for (const Review& review : item.reviews) {
      for (const Sentence& sentence : review.sentences) {
        for (const ConceptSentimentPair& pair : sentence.pairs) {
          out.emplace_back(pair.concept_id,
                           std::bit_cast<uint64_t>(pair.sentiment));
        }
      }
    }
    return out;
  };
  // Every item's pairs in item order (doctor items, then phone items),
  // sentiments as raw bits.
  auto annotate_all = [&](size_t first_item) {
    std::vector<ItemPairs> out(doctor_texts.size() + phone_texts.size());
    for (size_t n = 0; n < doctor_texts.size(); ++n) {
      size_t i = (first_item + n) % doctor_texts.size();
      Result<Item> item =
          doctor_annotator.AnnotateTexts("d", doctor_texts[i], {});
      if (item.ok()) out[i] = pairs_of(*item);
      size_t j = (first_item + n) % phone_texts.size();
      item = phone_annotator.AnnotateTexts("p", phone_texts[j], {});
      if (item.ok()) out[doctor_texts.size() + j] = pairs_of(*item);
    }
    return out;
  };
  const auto reference = annotate_all(0);
  size_t doctor_pairs = 0;
  size_t phone_pairs = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    (i < doctor_texts.size() ? doctor_pairs : phone_pairs) +=
        reference[i].size();
  }
  ASSERT_GT(doctor_pairs, 1000u);
  ASSERT_GT(phone_pairs, 1000u);

  constexpr int kThreads = 4;
  std::vector<std::vector<ItemPairs>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<size_t>(t)] =
          annotate_all(static_cast<size_t>(t) * doctor_texts.size() / kThreads);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)], reference) << "thread " << t;
  }
}

// -------------------------------------- End-to-end pipeline vs ground truth

TEST(PipelineTest, AnnotationRecoversGeneratorPairs) {
  // Generate text with known pairs, strip them, re-annotate through the
  // extraction + sentiment pipeline, and check agreement.
  CellPhoneCorpusOptions options;
  options.scale = 0.04;
  Corpus corpus = GenerateCellPhoneCorpus(options);
  ReviewAnnotator annotator(&corpus.ontology,
                            SentimentEstimator::LexiconOnly());

  int truth_pairs = 0, recovered = 0;
  int polar_pairs = 0, sentiment_sign_match = 0;
  for (Item item : corpus.items) {  // copy: we mutate
    Item annotated = item;
    ASSERT_TRUE(annotator.Annotate(annotated).ok());
    for (size_t r = 0; r < item.reviews.size(); ++r) {
      for (size_t s = 0; s < item.reviews[r].sentences.size(); ++s) {
        const auto& truth = item.reviews[r].sentences[s].pairs;
        const auto& found = annotated.reviews[r].sentences[s].pairs;
        for (const auto& pair : truth) {
          ++truth_pairs;
          for (const auto& f : found) {
            if (f.concept_id == pair.concept_id) {
              ++recovered;
              if (std::abs(pair.sentiment) > 0.25) {
                ++polar_pairs;
                if ((f.sentiment >= 0) == (pair.sentiment >= 0)) {
                  ++sentiment_sign_match;
                }
              }
              break;
            }
          }
        }
      }
    }
  }
  ASSERT_GT(truth_pairs, 500);
  // The dictionary extractor should recover the large majority of planted
  // concepts, and the lexicon should get the polarity right when the
  // planted sentiment is not near-neutral.
  EXPECT_GT(static_cast<double>(recovered) / truth_pairs, 0.8);
  ASSERT_GT(polar_pairs, 200);
  EXPECT_GT(static_cast<double>(sentiment_sign_match) / polar_pairs, 0.6);
}

}  // namespace
}  // namespace osrs
