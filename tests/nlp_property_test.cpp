// Property tests of the NLP substrate: the Aho-Corasick matcher against a
// brute-force reference, tokenizer/splitter invariants on random text, and
// ontology serialization round-trips across generator shapes.

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "extraction/aho_corasick.h"
#include "ontology/snomed_like.h"
#include "text/porter_stemmer.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace osrs {
namespace {

// ----------------------------------------------- Aho-Corasick vs brute force

/// Find over `tokens`, each mapped to its symbol through SymbolOf.
std::vector<TokenAhoCorasick::Match> FindTokens(
    const TokenAhoCorasick& ac, const std::vector<std::string>& tokens) {
  std::vector<int> symbols;
  for (const std::string& token : tokens) symbols.push_back(ac.SymbolOf(token));
  std::vector<TokenAhoCorasick::Match> matches;
  ac.Find(symbols, &matches);
  return matches;
}

/// Reference matcher: try every pattern at every position.
std::vector<TokenAhoCorasick::Match> BruteForceFind(
    const std::vector<std::vector<std::string>>& patterns,
    const std::vector<std::string>& text) {
  std::vector<TokenAhoCorasick::Match> matches;
  for (size_t start = 0; start < text.size(); ++start) {
    for (size_t p = 0; p < patterns.size(); ++p) {
      const auto& pattern = patterns[p];
      if (pattern.empty() || start + pattern.size() > text.size()) continue;
      bool hit = true;
      for (size_t i = 0; i < pattern.size(); ++i) {
        if (text[start + i] != pattern[i]) {
          hit = false;
          break;
        }
      }
      if (hit) {
        matches.push_back(
            {static_cast<int>(p), start, start + pattern.size()});
      }
    }
  }
  return matches;
}

/// Canonical ordering for comparing match sets.
void SortMatches(std::vector<TokenAhoCorasick::Match>& matches) {
  std::sort(matches.begin(), matches.end(),
            [](const TokenAhoCorasick::Match& a,
               const TokenAhoCorasick::Match& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.end != b.end) return a.end < b.end;
              return a.payload < b.payload;
            });
}

class AhoCorasickProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(AhoCorasickProperty, MatchesBruteForceOnRandomInput) {
  Rng rng(GetParam());
  const std::vector<std::string> alphabet{"a", "b", "c", "d"};
  for (int trial = 0; trial < 20; ++trial) {
    // Random patterns of length 1-4 over a tiny alphabet (maximizes
    // overlaps and fail-link traffic).
    std::vector<std::vector<std::string>> patterns;
    size_t num_patterns = 1 + rng.NextUint64(8);
    std::set<std::vector<std::string>> unique_patterns;
    for (size_t p = 0; p < num_patterns; ++p) {
      std::vector<std::string> pattern;
      size_t length = 1 + rng.NextUint64(4);
      for (size_t i = 0; i < length; ++i) {
        pattern.push_back(alphabet[rng.NextUint64(alphabet.size())]);
      }
      if (unique_patterns.insert(pattern).second) {
        patterns.push_back(std::move(pattern));
      }
    }
    TokenAhoCorasick automaton;
    for (size_t p = 0; p < patterns.size(); ++p) {
      automaton.AddPattern(patterns[p], static_cast<int>(p));
    }
    automaton.Build();

    std::vector<std::string> text;
    size_t text_length = rng.NextUint64(60);
    for (size_t i = 0; i < text_length; ++i) {
      // Occasionally inject an out-of-alphabet token (state reset path).
      text.push_back(rng.NextBernoulli(0.1)
                         ? "zz"
                         : alphabet[rng.NextUint64(alphabet.size())]);
    }

    auto expected = BruteForceFind(patterns, text);
    auto actual = FindTokens(automaton, text);
    SortMatches(expected);
    SortMatches(actual);
    ASSERT_EQ(actual.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].payload, expected[i].payload);
      EXPECT_EQ(actual[i].begin, expected[i].begin);
      EXPECT_EQ(actual[i].end, expected[i].end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickProperty,
                         testing::Values(101u, 202u, 303u, 404u));

// ----------------------------------------------------- Tokenizer invariants

class TextProperty : public testing::TestWithParam<uint64_t> {};

std::string RandomText(Rng& rng, size_t length) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
      ".,!?'-()\n\t";
  std::string text;
  for (size_t i = 0; i < length; ++i) {
    text.push_back(kChars[rng.NextUint64(sizeof(kChars) - 1)]);
  }
  return text;
}

TEST_P(TextProperty, TokenizerInvariantsOnRandomText) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::string text = RandomText(rng, rng.NextUint64(200));
    auto spans = TokenizeWithOffsets(text);
    size_t previous_end = 0;
    for (const auto& span : spans) {
      // Tokens are non-empty, lowercase, in left-to-right order, and their
      // offset points at a matching character of the source.
      ASSERT_FALSE(span.token.empty());
      EXPECT_GE(span.offset, previous_end);
      previous_end = span.offset + 1;
      for (char c : span.token) {
        EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '\'')
            << "token '" << span.token << "'";
      }
      char source = text[span.offset];
      char lowered = static_cast<char>(
          std::tolower(static_cast<unsigned char>(source)));
      EXPECT_EQ(lowered, span.token[0]);
    }
    // Tokenize and TokenizeViews agree with TokenizeWithOffsets.
    auto tokens = Tokenize(text);
    ASSERT_EQ(tokens.size(), spans.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(tokens[i], spans[i].token);
    }
    std::string lowered = "stale";
    std::vector<std::string_view> views = {"stale"};
    TokenizeViews(text, &lowered, &views);
    ASSERT_EQ(lowered.size(), text.size());
    ASSERT_EQ(views.size(), spans.size());
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i], spans[i].token);
      EXPECT_EQ(static_cast<size_t>(views[i].data() - lowered.data()),
                spans[i].offset);
    }
  }
}

TEST_P(TextProperty, SentenceSplitterNeverLosesNonSpaceContent) {
  Rng rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 30; ++trial) {
    std::string text = RandomText(rng, rng.NextUint64(300));
    auto sentences = SplitSentences(text);
    // Joined sentences contain every alphanumeric character of the input
    // in order (terminators and whitespace may be dropped).
    std::string joined;
    for (const auto& sentence : sentences) joined += sentence;
    size_t cursor = 0;
    for (char c : text) {
      if (!std::isalnum(static_cast<unsigned char>(c))) continue;
      while (cursor < joined.size() && joined[cursor] != c) ++cursor;
      ASSERT_LT(cursor, joined.size()) << "lost character '" << c << "'";
      ++cursor;
    }
    for (const auto& sentence : sentences) {
      EXPECT_FALSE(sentence.empty());
      EXPECT_EQ(std::string(Trim(sentence)), sentence);
    }
  }
}

TEST_P(TextProperty, StemmerIsIdempotentOnItsOutputsMostly) {
  // Porter is not strictly idempotent in general, but on our extraction
  // vocabulary (short noun-ish words) double-stemming must be stable —
  // the dictionary extractor relies on stem(stem(w)) == stem(w) for terms.
  Rng rng(GetParam() * 13 + 5);
  const char* words[] = {"battery",  "batteries", "charging", "screens",
                         "cameras",  "shipping",  "pictures", "resolution",
                         "speakers", "services",  "doctors",  "treatments",
                         "imaging",  "disorders", "therapy",  "syndrome"};
  for (const char* word : words) {
    std::string once = PorterStem(word);
    EXPECT_EQ(PorterStem(once), once) << word;
  }
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextProperty, testing::Values(7u, 8u, 9u));

// ------------------------------------------------ Ontology round-trip sweep

class OntologyRoundTrip : public testing::TestWithParam<uint64_t> {};

TEST_P(OntologyRoundTrip, SerializeDeserializeAcrossShapes) {
  SnomedLikeOptions options;
  options.seed = GetParam();
  options.num_concepts = 150 + static_cast<int>(GetParam() % 100);
  options.max_depth = 3 + static_cast<int>(GetParam() % 4);
  options.multi_parent_prob = 0.2;
  Ontology onto = BuildSnomedLikeOntology(options);
  auto restored = Ontology::Deserialize(onto.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Serialize(), onto.Serialize());
  EXPECT_EQ(restored->max_depth(), onto.max_depth());
  EXPECT_EQ(restored->root(), onto.root());
  EXPECT_DOUBLE_EQ(restored->AverageAncestorCount(),
                   onto.AverageAncestorCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OntologyRoundTrip,
                         testing::Values(1u, 12u, 123u, 1234u));

}  // namespace
}  // namespace osrs
