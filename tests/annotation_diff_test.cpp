// Differential proof for the annotation pipeline. ReviewAnnotator (token
// views, per-thread stem memo, automaton over symbols, one lexicon row per
// token) must give the pairs of a reference built from the public
// primitives: Tokenize, PorterStem on each token, a brute-force lookup of
// every token span among the ontology's stemmed terms, and the lexicon's
// per-word accessors in the scoring loop's order. Concept order and
// sentiment bits must agree on both datagen corpora and on fuzzed text,
// and known-answer digests pin every pair of the corpora and of the fuzz.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "api/annotator.h"
#include "common/rng.h"
#include "core/model.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/doctor_corpus.h"
#include "extraction/dictionary_extractor.h"
#include "ontology/cellphone_hierarchy.h"
#include "sentiment/estimator.h"
#include "sentiment/lexicon.h"
#include "text/porter_stemmer.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace osrs {
namespace {

std::vector<std::string> Stems(std::string_view text) {
  std::vector<std::string> stems = Tokenize(text);
  for (std::string& stem : stems) stem = PorterStem(stem);
  return stems;
}

/// The annotation of one sentence by the simplest means.
class ReferenceAnnotator {
 public:
  explicit ReferenceAnnotator(const Ontology& ontology) {
    for (const auto& [term, concept_id] : ontology.term_lexicon()) {
      std::vector<std::string> stems = Stems(term);
      if (stems.empty()) continue;
      max_term_length_ = std::max(max_term_length_, stems.size());
      terms_[stems].push_back(concept_id);
    }
  }

  std::vector<ConceptSentimentPair> Annotate(std::string_view text) const {
    const std::vector<std::string> stems = Stems(text);
    // Every token span that spells a term.
    struct Span {
      size_t begin;
      size_t end;
      ConceptId concept_id;
    };
    std::vector<Span> spans;
    for (size_t begin = 0; begin < stems.size(); ++begin) {
      for (size_t end = begin + 1;
           end <= stems.size() && end - begin <= max_term_length_; ++end) {
        auto it = terms_.find(std::vector<std::string>(
            stems.begin() + static_cast<std::ptrdiff_t>(begin),
            stems.begin() + static_cast<std::ptrdiff_t>(end)));
        if (it == terms_.end()) continue;
        for (ConceptId concept_id : it->second) {
          spans.push_back({begin, end, concept_id});
        }
      }
    }
    // Longest span first, then the leftmost, then the smaller concept id;
    // a span that overlaps an accepted one is dropped.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.end - a.begin != b.end - b.begin) {
        return a.end - a.begin > b.end - b.begin;
      }
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.concept_id < b.concept_id;
    });
    std::vector<Span> accepted;
    for (const Span& span : spans) {
      bool overlaps = false;
      for (const Span& other : accepted) {
        overlaps |= span.begin < other.end && other.begin < span.end;
      }
      if (!overlaps) accepted.push_back(span);
    }
    std::sort(accepted.begin(), accepted.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    std::vector<ConceptId> concepts;
    for (const Span& span : accepted) {
      if (std::find(concepts.begin(), concepts.end(), span.concept_id) ==
          concepts.end()) {
        concepts.push_back(span.concept_id);
      }
    }
    std::vector<ConceptSentimentPair> pairs;
    if (concepts.empty()) return pairs;
    const double sentiment = Score(Tokenize(text));
    for (ConceptId concept_id : concepts) {
      pairs.push_back({concept_id, sentiment});
    }
    return pairs;
  }

 private:
  /// The lexicon's scoring loop, word by word through its accessors.
  static double Score(const std::vector<std::string>& tokens) {
    const SentimentLexicon& lexicon = SentimentLexicon::Default();
    double total = 0.0;
    int hits = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
      double strength = lexicon.OpinionStrength(tokens[i]);
      if (strength == 0.0) continue;
      double factor = 1.0;
      bool negated = false;
      for (size_t back = 1; back <= 3 && back <= i; ++back) {
        factor *= lexicon.ModifierFactor(tokens[i - back]);
        if (lexicon.IsNegator(tokens[i - back])) negated = !negated;
      }
      double contribution = strength * factor;
      if (negated) contribution *= -0.8;
      total += contribution;
      ++hits;
    }
    if (hits == 0) return 0.0;
    return std::clamp(total / static_cast<double>(hits), -1.0, 1.0);
  }

  std::map<std::vector<std::string>, std::vector<ConceptId>> terms_;
  size_t max_term_length_ = 0;
};

/// Order-sensitive digest of a pair stream.
struct PairDigest {
  uint64_t hash = 0;
  size_t pairs = 0;

  void Add(const ConceptSentimentPair& pair) {
    hash = Mix64(hash ^ static_cast<uint64_t>(pair.concept_id));
    hash = Mix64(hash ^ std::bit_cast<uint64_t>(pair.sentiment));
    ++pairs;
  }
};

/// Annotates each of `texts` (one review each) through AnnotateTexts,
/// checks every sentence against the reference, and folds the pairs into
/// `digest`. Returns the number of sentences whose pairs differ.
int AnnotateAndCompare(const ReviewAnnotator& annotator,
                       const ReferenceAnnotator& reference,
                       const std::string& item_id,
                       const std::vector<std::string>& texts,
                       PairDigest* digest) {
  Result<Item> item = annotator.AnnotateTexts(item_id, texts, {});
  EXPECT_TRUE(item.ok()) << item.status().ToString();
  if (!item.ok()) return 1;
  int mismatches = 0;
  for (size_t r = 0; r < texts.size(); ++r) {
    std::vector<std::string> sentences = SplitSentences(texts[r]);
    const std::vector<Sentence>& annotated = item->reviews[r].sentences;
    EXPECT_EQ(annotated.size(), sentences.size()) << texts[r];
    if (annotated.size() != sentences.size()) return mismatches + 1;
    for (size_t s = 0; s < sentences.size(); ++s) {
      std::vector<ConceptSentimentPair> expected =
          reference.Annotate(sentences[s]);
      const std::vector<ConceptSentimentPair>& actual = annotated[s].pairs;
      bool same = expected.size() == actual.size();
      for (size_t p = 0; same && p < actual.size(); ++p) {
        same = expected[p].concept_id == actual[p].concept_id &&
               std::bit_cast<uint64_t>(expected[p].sentiment) ==
                   std::bit_cast<uint64_t>(actual[p].sentiment);
      }
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << "pairs differ from the reference in \""
                      << sentences[s] << "\"";
      }
      for (const ConceptSentimentPair& pair : actual) digest->Add(pair);
    }
  }
  return mismatches;
}

/// Review texts of `item` built as perfbench's ingest workloads build them:
/// the generated sentences, each followed by '.', joined by spaces.
std::vector<std::string> ReviewTexts(const Item& item) {
  std::vector<std::string> texts;
  for (const Review& review : item.reviews) {
    std::string text;
    for (const Sentence& sentence : review.sentences) {
      if (!text.empty()) text += ' ';
      text += sentence.text;
      text += '.';
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

/// Checks every item of `corpus` against the reference.
PairDigest CheckCorpus(const Corpus& corpus) {
  ReviewAnnotator annotator(&corpus.ontology,
                            SentimentEstimator::LexiconOnly());
  ReferenceAnnotator reference(corpus.ontology);
  PairDigest digest;
  int mismatches = 0;
  for (const Item& item : corpus.items) {
    mismatches += AnnotateAndCompare(annotator, reference, item.id,
                                     ReviewTexts(item), &digest);
  }
  EXPECT_EQ(mismatches, 0);
  return digest;
}

TEST(AnnotationDiffTest, DoctorCorpusMatchesReferenceAndKnownDigest) {
  DoctorCorpusOptions options;
  options.scale = 0.1;
  options.seed = 42;
  PairDigest digest = CheckCorpus(GenerateDoctorCorpus(options));
  EXPECT_EQ(digest.pairs, 26442u);
  EXPECT_EQ(digest.hash, 0xEF57947E4C9008B7ULL);
}

TEST(AnnotationDiffTest, PhoneCorpusMatchesReferenceAndKnownDigest) {
  CellPhoneCorpusOptions options;
  options.scale = 0.05;
  options.seed = 43;
  PairDigest digest = CheckCorpus(GenerateCellPhoneCorpus(options));
  EXPECT_EQ(digest.pairs, 8558u);
  EXPECT_EQ(digest.hash, 0x3BE40D53DF62F01EULL);
}

/// A review-like string over ontology terms and lexicon words in random
/// case, mixed with the inputs tokenizers and splitters get wrong:
/// apostrophes, hyphens, digits, non-ASCII bytes, abbreviations and runs
/// of terminators.
std::string FuzzText(Rng& rng, const std::vector<std::string>& words) {
  static const char* const kPieces[] = {
      " ",    " ",     " ",      "-",   "'",         "''",   "n't",
      "...",  "!!",    "?!",     ".",   ". ",        "\n",   "Dr. ",
      "e.g. ", "J. ",  "i.e.",   "St.", "approx. ",  "\xC3\xA9",
      "\xE2\x80\x99",  "\xFF",   "\t",  ",",         "42",   "3.5",
      "x2",   "co-op", "wi-fi",  "'s",  "  \n\n ",   "?",    "!",
  };
  const size_t num_pieces = sizeof(kPieces) / sizeof(kPieces[0]);
  std::string text;
  const uint64_t length = 1 + rng.NextUint64(40);
  for (uint64_t i = 0; i < length; ++i) {
    if (rng.NextUint64(2) == 0) {
      text += kPieces[rng.NextUint64(num_pieces)];
      continue;
    }
    std::string word = words[rng.NextUint64(words.size())];
    // Capitalized, SHOUTED, or as is.
    const uint64_t shape = rng.NextUint64(4);
    for (size_t c = 0; c < word.size() && shape < 2; ++c) {
      if (word[c] >= 'a' && word[c] <= 'z') {
        word[c] = static_cast<char>(word[c] - 'a' + 'A');
      }
      if (shape == 0) break;
    }
    text += word;
    if (rng.NextUint64(4) == 0) text += ' ';
  }
  return text;
}

TEST(AnnotationDiffTest, FuzzedTextMatchesReferenceAndKnownDigest) {
  Ontology ontology = BuildCellPhoneHierarchy();
  std::vector<std::string> words;
  for (const auto& [term, concept_id] : ontology.term_lexicon()) {
    for (std::string& token : Tokenize(term)) words.push_back(token);
  }
  for (const auto& [word, strength] :
       SentimentLexicon::Default().AllOpinionWords()) {
    // Only words a token can equal (the sentiment_test invariant), so the
    // fuzz does not depend on what the lexicon lists beyond them.
    if (Tokenize(word) == std::vector<std::string>{word}) {
      words.push_back(word);
    }
  }
  for (const char* word : {"very", "not", "never", "slightly", "don't",
                           "extremely", "no", "hardly", "so", "barely"}) {
    words.push_back(word);
  }
  // Term and lexicon words in a fixed order: the digest depends on it.
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());

  ReviewAnnotator annotator(&ontology, SentimentEstimator::LexiconOnly());
  ReferenceAnnotator reference(ontology);
  Rng rng(20260);
  PairDigest digest;
  int mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    mismatches += AnnotateAndCompare(annotator, reference, "fuzz",
                                     {FuzzText(rng, words)}, &digest);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(digest.pairs, 25197u);
  EXPECT_EQ(digest.hash, 0x68661E5B7345D0D2ULL);
}

/// Small corpora over two different ontologies, and the review texts of
/// their items interleaved: doctor item 0, phone item 0, doctor item 1, ...
struct TwoOntologies {
  Corpus doctor;
  Corpus phone;
  std::vector<std::vector<std::string>> items;
};

TwoOntologies MakeTwoOntologies() {
  DoctorCorpusOptions doctor_options;
  doctor_options.scale = 0.02;
  doctor_options.seed = 42;
  CellPhoneCorpusOptions phone_options;
  phone_options.scale = 0.01;
  phone_options.seed = 43;
  TwoOntologies two{GenerateDoctorCorpus(doctor_options),
                    GenerateCellPhoneCorpus(phone_options),
                    {}};
  const size_t n = std::max(two.doctor.items.size(), two.phone.items.size());
  for (size_t i = 0; i < n; ++i) {
    if (i < two.doctor.items.size()) {
      two.items.push_back(ReviewTexts(two.doctor.items[i]));
    }
    if (i < two.phone.items.size()) {
      two.items.push_back(ReviewTexts(two.phone.items[i]));
    }
  }
  return two;
}

// The token memo is per thread, and its entries name the annotator that
// filled them: two annotators over different ontologies, alternating on
// one thread over the same texts, each give their own reference's pairs.
TEST(AnnotationDiffTest, AlternatingAnnotatorsOnOneThreadMatchReferences) {
  const TwoOntologies two = MakeTwoOntologies();
  const ReviewAnnotator doctor_annotator(&two.doctor.ontology,
                                         SentimentEstimator::LexiconOnly());
  const ReviewAnnotator phone_annotator(&two.phone.ontology,
                                        SentimentEstimator::LexiconOnly());
  const ReferenceAnnotator doctor_reference(two.doctor.ontology);
  const ReferenceAnnotator phone_reference(two.phone.ontology);
  PairDigest doctor_digest;
  PairDigest phone_digest;
  int mismatches = 0;
  for (const std::vector<std::string>& texts : two.items) {
    mismatches += AnnotateAndCompare(doctor_annotator, doctor_reference,
                                     "doctor", texts, &doctor_digest);
    mismatches += AnnotateAndCompare(phone_annotator, phone_reference,
                                     "phone", texts, &phone_digest);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(doctor_digest.pairs, 1000u);
  EXPECT_GT(phone_digest.pairs, 1000u);
}

// A destroyed annotator's memo entries never answer for the next one, even
// one built where it lived: each replacement is over the other ontology.
TEST(AnnotationDiffTest, ReplacedAnnotatorMatchesItsReference) {
  const TwoOntologies two = MakeTwoOntologies();
  const ReferenceAnnotator doctor_reference(two.doctor.ontology);
  const ReferenceAnnotator phone_reference(two.phone.ontology);
  int mismatches = 0;
  for (int round = 0; round < 4; ++round) {
    const bool doctor = round % 2 == 0;
    auto annotator = std::make_unique<ReviewAnnotator>(
        doctor ? &two.doctor.ontology : &two.phone.ontology,
        SentimentEstimator::LexiconOnly());
    PairDigest digest;
    for (const std::vector<std::string>& texts : two.items) {
      mismatches += AnnotateAndCompare(
          *annotator, doctor ? doctor_reference : phone_reference, "item",
          texts, &digest);
    }
    EXPECT_GT(digest.pairs, 1000u);
  }
  EXPECT_EQ(mismatches, 0);
}

// More distinct words than the memo's 4,096 slots, among term and opinion
// words, and words of exactly 23 bytes (the longest the memo keeps) and 24
// bytes (the shortest that bypasses it) between them.
TEST(AnnotationDiffTest, OpenVocabularyAndLongWordsMatchReference) {
  constexpr size_t kMemoSlots = 4096;
  Ontology ontology = BuildCellPhoneHierarchy();
  std::vector<std::string> words;
  for (const auto& [term, concept_id] : ontology.term_lexicon()) {
    for (std::string& token : Tokenize(term)) words.push_back(token);
  }
  for (const auto& [word, strength] :
       SentimentLexicon::Default().AllOpinionWords()) {
    words.push_back(word);
  }
  for (const char* word : {"not", "very", "never", "slightly"}) {
    words.push_back(word);
  }
  words.push_back(std::string(23, 'q'));
  words.push_back(std::string(24, 'q'));
  Rng rng(20262);
  auto random_word = [&](uint64_t length) {
    std::string word;
    for (uint64_t c = 0; c < length; ++c) {
      word += static_cast<char>('a' + rng.NextUint64(26));
    }
    return word;
  };
  std::vector<std::vector<std::string>> items(1);
  for (int r = 0; r < 1000; ++r) {
    std::string text;
    for (int t = 0; t < 40; ++t) {
      const uint64_t kind = rng.NextUint64(6);
      if (kind == 0) {
        text += random_word(4 + rng.NextUint64(9));
      } else if (kind == 1) {
        text += random_word(23 + rng.NextUint64(2));
      } else {
        text += words[rng.NextUint64(words.size())];
      }
      text += rng.NextUint64(8) == 0 ? ". " : " ";
    }
    if (items.back().size() == 50) items.emplace_back();
    items.back().push_back(std::move(text));
  }
  std::set<std::string> distinct;
  for (const auto& texts : items) {
    for (const std::string& text : texts) {
      for (std::string& token : Tokenize(text)) distinct.insert(token);
    }
  }
  EXPECT_GT(distinct.size(), 2 * kMemoSlots);

  const ReviewAnnotator annotator(&ontology,
                                  SentimentEstimator::LexiconOnly());
  const ReferenceAnnotator reference(ontology);
  PairDigest digest;
  int mismatches = 0;
  for (const std::vector<std::string>& texts : items) {
    mismatches +=
        AnnotateAndCompare(annotator, reference, "vocab", texts, &digest);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(digest.pairs, 1000u);
}

// A trained estimator blends its regression into each score: AnnotateTexts
// gives, bit for bit, the pairs of the layer-by-layer route perfbench's
// traced walk takes (SplitSentences, Tokenize, TryExtractConcepts,
// TryScoreSentence) on the phone corpus.
TEST(AnnotationDiffTest, TrainedEstimatorMatchesLayerByLayerRoute) {
  CellPhoneCorpusOptions options;
  options.scale = 0.05;
  options.seed = 43;
  const Corpus corpus = GenerateCellPhoneCorpus(options);
  // Weak supervision, as sentiment_test trains: tokenized sentences
  // labeled with their review's rating.
  std::vector<std::vector<std::string>> training;
  std::vector<double> ratings;
  for (const Item& item : corpus.items) {
    for (const Review& review : item.reviews) {
      for (const Sentence& sentence : review.sentences) {
        if (training.size() == 4000) break;
        training.push_back(Tokenize(sentence.text));
        ratings.push_back(review.rating);
      }
    }
  }
  SentimentEstimatorOptions estimator_options;
  estimator_options.embedding.dimensions = 12;
  Result<SentimentEstimator> estimator =
      SentimentEstimator::Train(training, ratings, estimator_options);
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  ASSERT_TRUE(estimator->has_regression());

  const ReviewAnnotator annotator(&corpus.ontology, *estimator);
  const DictionaryExtractor extractor(&corpus.ontology);
  const SentimentEstimator lexicon_only = SentimentEstimator::LexiconOnly();
  size_t pairs = 0;
  size_t blended = 0;  // scored sentences the regression moved
  int mismatches = 0;
  for (const Item& item : corpus.items) {
    const std::vector<std::string> texts = ReviewTexts(item);
    Result<Item> annotated = annotator.AnnotateTexts(item.id, texts, {});
    ASSERT_TRUE(annotated.ok()) << annotated.status().ToString();
    for (size_t r = 0; r < texts.size(); ++r) {
      const std::vector<std::string> sentences = SplitSentences(texts[r]);
      const std::vector<Sentence>& actual = annotated->reviews[r].sentences;
      ASSERT_EQ(actual.size(), sentences.size());
      for (size_t s = 0; s < sentences.size(); ++s) {
        const std::vector<std::string> tokens = Tokenize(sentences[s]);
        Result<std::vector<ConceptId>> concepts =
            extractor.TryExtractConcepts(tokens);
        ASSERT_TRUE(concepts.ok());
        std::vector<ConceptSentimentPair> expected;
        if (!concepts->empty()) {
          Result<double> sentiment = estimator->TryScoreSentence(tokens);
          ASSERT_TRUE(sentiment.ok());
          for (ConceptId concept_id : *concepts) {
            expected.push_back({concept_id, *sentiment});
          }
          blended += std::bit_cast<uint64_t>(*sentiment) !=
                     std::bit_cast<uint64_t>(
                         lexicon_only.ScoreSentence(AsViews(tokens)));
        }
        bool same = expected.size() == actual[s].pairs.size();
        for (size_t p = 0; same && p < expected.size(); ++p) {
          same = expected[p].concept_id == actual[s].pairs[p].concept_id &&
                 std::bit_cast<uint64_t>(expected[p].sentiment) ==
                     std::bit_cast<uint64_t>(actual[s].pairs[p].sentiment);
        }
        if (!same && ++mismatches <= 5) {
          ADD_FAILURE() << "pairs differ from the layer route in \""
                        << sentences[s] << "\"";
        }
        pairs += expected.size();
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(pairs, 1000u);
  EXPECT_GT(blended, 1000u);
}

}  // namespace
}  // namespace osrs
