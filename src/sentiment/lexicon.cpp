#include "sentiment/lexicon.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace osrs {
namespace {

using Row = SentimentLexicon::Row;

/// The row of every word the lexicon does not list.
constexpr Row kUnlisted{};

}  // namespace

struct SentimentLexicon::Tables {
  const Row& RowOf(std::string_view word) const {
    auto it = words.find(word);
    return it == words.end() ? kUnlisted : it->second;
  }

  /// Every opinion word, modifier and negator, one row each.
  StringMap<Row> words;
  // Opinion words sorted by strength for WordForStrength lookups.
  std::vector<std::pair<double, std::string>> by_strength;
  // The predicative-adjective subset, same ordering.
  std::vector<std::pair<double, std::string>> adjectives_by_strength;
};

namespace {

SentimentLexicon::Tables* BuildTables() {
  auto* t = new SentimentLexicon::Tables();
  // Graded opinion words. Strengths follow the usual 5-level scheme used by
  // graded lexicons (±0.3 weak, ±0.5 moderate, ±0.75 strong, ±0.95 extreme).
  const std::pair<const char*, double> kOpinion[] = {
      // Positive.
      {"good", 0.5},        {"great", 0.75},      {"excellent", 0.95},
      {"amazing", 0.95},    {"awesome", 0.9},     {"fantastic", 0.9},
      {"wonderful", 0.85},  {"outstanding", 0.9}, {"perfect", 0.95},
      {"superb", 0.9},      {"love", 0.8},        {"loved", 0.8},
      {"nice", 0.5},        {"fine", 0.35},       {"decent", 0.35},
      {"solid", 0.5},       {"impressive", 0.7},  {"beautiful", 0.7},
      {"best", 0.9},        {"better", 0.4},      {"happy", 0.6},
      {"pleased", 0.6},     {"satisfied", 0.55},  {"recommend", 0.6},
      {"recommended", 0.6}, {"fast", 0.45},       {"quick", 0.4},
      {"smooth", 0.5},      {"sharp", 0.5},       {"crisp", 0.55},
      {"bright", 0.45},     {"responsive", 0.55}, {"reliable", 0.6},
      {"sturdy", 0.5},      {"helpful", 0.6},     {"friendly", 0.6},
      {"caring", 0.65},     {"professional", 0.6}, {"thorough", 0.55},
      {"knowledgeable", 0.65}, {"attentive", 0.6}, {"courteous", 0.55},
      {"gentle", 0.5},      {"comfortable", 0.5}, {"clean", 0.45},
      {"affordable", 0.5},  {"cheap", 0.3},       {"worth", 0.5},
      {"pleasant", 0.55},   {"enjoy", 0.55},      {"enjoyed", 0.55},
      {"works", 0.35},      {"worked", 0.35},     {"compassionate", 0.7},
      {"excellently", 0.9}, {"flawless", 0.9},    {"vibrant", 0.6},
      {"durable", 0.55},    {"loud", 0.35},       {"clear", 0.5},
      {"accurate", 0.55},   {"efficient", 0.55},  {"generous", 0.55},
      // Negative.
      {"bad", -0.5},        {"poor", -0.55},      {"terrible", -0.9},
      {"horrible", -0.9},   {"awful", -0.9},      {"worst", -0.95},
      {"worse", -0.45},     {"hate", -0.8},       {"hated", -0.8},
      {"disappointing", -0.6}, {"disappointed", -0.6}, {"useless", -0.75},
      {"broken", -0.7},     {"defective", -0.75}, {"slow", -0.45},
      {"laggy", -0.55},     {"flimsy", -0.5},     {"weak", -0.45},
      {"dim", -0.4},        {"blurry", -0.5},
      {"grainy", -0.45},    {"fuzzy", -0.4},      {"unreliable", -0.6},
      {"rude", -0.7},       {"dismissive", -0.6}, {"arrogant", -0.6},
      {"careless", -0.6},   {"unprofessional", -0.65}, {"dirty", -0.5},
      {"painful", -0.6},    {"uncomfortable", -0.5}, {"expensive", -0.4},
      {"overpriced", -0.55}, {"waste", -0.7},     {"regret", -0.65},
      {"avoid", -0.6},      {"problem", -0.4},    {"problems", -0.4},
      {"issue", -0.35},     {"issues", -0.35},    {"fails", -0.6},
      {"failed", -0.6},     {"failure", -0.65},   {"crash", -0.6},
      {"crashes", -0.6},    {"freezes", -0.55},   {"drains", -0.5},
      {"scratches", -0.4},  {"cracked", -0.6},    {"dreadful", -0.85},
      {"mediocre", -0.35},  {"noisy", -0.4},      {"muffled", -0.45},
      {"misdiagnosed", -0.8}, {"unhelpful", -0.55}, {"late", -0.35},
      {"overheats", -0.6},  {"dead", -0.65},      {"faulty", -0.65},
  };
  for (const auto& [word, strength] : kOpinion) {
    t->words[word].strength = strength;
    t->by_strength.emplace_back(strength, word);
  }
  std::sort(t->by_strength.begin(), t->by_strength.end());

  // Words that read naturally after a copula ("the X is ___").
  const char* kPredicativeAdjectives[] = {
      "good",        "great",      "excellent",  "amazing",    "awesome",
      "fantastic",   "wonderful",  "outstanding", "perfect",   "superb",
      "nice",        "fine",       "decent",     "solid",      "impressive",
      "beautiful",   "fast",       "quick",      "smooth",     "sharp",
      "crisp",       "bright",     "responsive", "reliable",   "sturdy",
      "helpful",     "friendly",   "caring",     "professional", "thorough",
      "knowledgeable", "attentive", "courteous", "gentle",     "comfortable",
      "clean",       "affordable", "pleasant",   "flawless",   "vibrant",
      "durable",     "loud",       "clear",      "accurate",   "efficient",
      "bad",         "poor",       "terrible",   "horrible",   "awful",
      "disappointing", "useless",  "broken",     "defective",  "slow",
      "laggy",       "flimsy",     "weak",       "dim",        "blurry",
      "grainy",      "fuzzy",      "unreliable", "rude",       "dismissive",
      "arrogant",    "careless",   "unprofessional", "dirty",  "painful",
      "uncomfortable", "expensive", "overpriced", "dreadful",  "mediocre",
      "noisy",       "muffled",    "unhelpful",  "faulty",     "dead",
  };
  for (const char* word : kPredicativeAdjectives) {
    double strength = t->RowOf(word).strength;
    OSRS_CHECK_MSG(strength != 0.0,
                   "adjective '" << word << "' missing from opinion table");
    t->adjectives_by_strength.emplace_back(strength, word);
  }
  std::sort(t->adjectives_by_strength.begin(),
            t->adjectives_by_strength.end());

  const std::pair<const char*, double> kModifiers[] = {
      {"very", 1.5},     {"really", 1.4},   {"extremely", 1.8},
      {"incredibly", 1.7}, {"so", 1.3},     {"super", 1.5},
      {"absolutely", 1.6}, {"totally", 1.4}, {"quite", 1.2},
      {"pretty", 1.15},  {"somewhat", 0.6}, {"slightly", 0.45},
      {"little", 0.55},  {"bit", 0.55},     {"fairly", 0.8},
      {"rather", 0.9},   {"mildly", 0.5},   {"barely", 0.35},
  };
  for (const auto& [word, factor] : kModifiers) {
    t->words[word].factor = factor;
  }

  for (const char* word :
       {"not", "no", "never", "n't", "don't", "doesn't", "didn't", "isn't",
        "wasn't", "aren't", "won't", "can't", "cannot", "couldn't",
        "wouldn't", "hardly", "without", "neither", "nor"}) {
    t->words[word].negator = true;
  }
  return t;
}

}  // namespace

SentimentLexicon::SentimentLexicon() : tables_(BuildTables()) {}

const SentimentLexicon& SentimentLexicon::Default() {
  static const SentimentLexicon& lexicon = *new SentimentLexicon();
  return lexicon;
}

double SentimentLexicon::OpinionStrength(std::string_view word) const {
  return tables_->RowOf(word).strength;
}

double SentimentLexicon::ModifierFactor(std::string_view word) const {
  return tables_->RowOf(word).factor;
}

bool SentimentLexicon::IsNegator(std::string_view word) const {
  return tables_->RowOf(word).negator;
}

const Row& SentimentLexicon::RowOf(std::string_view word) const {
  return tables_->RowOf(word);
}

double SentimentLexicon::ScoreSentence(
    std::span<const std::string_view> tokens) const {
  thread_local std::vector<const Row*> rows;
  rows.clear();
  for (std::string_view token : tokens) rows.push_back(&tables_->RowOf(token));
  return ScoreRows(rows);
}

double SentimentLexicon::ScoreRows(std::span<const Row* const> rows) const {
  double total = 0.0;
  int hits = 0;
  // Rows of the three preceding tokens, nearest first. Positions before the
  // sentence start read as unlisted: a factor of exactly 1 leaves the
  // product bit for bit as it was.
  const Row* previous[3] = {&kUnlisted, &kUnlisted, &kUnlisted};
  for (const Row* row : rows) {
    if (row->strength != 0.0) {
      double factor = 1.0;
      bool negated = false;
      for (const Row* prev : previous) {
        factor *= prev->factor;
        if (prev->negator) negated = !negated;
      }
      double contribution = row->strength * factor;
      if (negated) contribution *= -0.8;  // "not great" is mildly negative
      total += contribution;
      ++hits;
    }
    previous[2] = previous[1];
    previous[1] = previous[0];
    previous[0] = row;
  }
  if (hits == 0) return 0.0;
  return Clamp(total / static_cast<double>(hits), -1.0, 1.0);
}

std::vector<std::pair<std::string, double>>
SentimentLexicon::AllOpinionWords() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(tables_->by_strength.size());
  for (const auto& [word, row] : tables_->words) {
    if (row.strength != 0.0) out.emplace_back(word, row.strength);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

const std::string& ClosestByStrength(
    const std::vector<std::pair<double, std::string>>& sorted,
    double target) {
  OSRS_CHECK(!sorted.empty());
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), target,
      [](const std::pair<double, std::string>& entry, double value) {
        return entry.first < value;
      });
  if (it == sorted.end()) return sorted.back().second;
  if (it == sorted.begin()) return it->second;
  auto prev = std::prev(it);
  return (target - prev->first) <= (it->first - target) ? prev->second
                                                        : it->second;
}

}  // namespace

const std::string& SentimentLexicon::WordForStrength(double target) const {
  return ClosestByStrength(tables_->by_strength, target);
}

const std::string& SentimentLexicon::AdjectiveForStrength(
    double target) const {
  return ClosestByStrength(tables_->adjectives_by_strength, target);
}

}  // namespace osrs
