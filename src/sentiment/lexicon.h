#ifndef OSRS_SENTIMENT_LEXICON_H_
#define OSRS_SENTIMENT_LEXICON_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace osrs {

/// Rule-based opinion lexicon with graded strengths, negation and intensity
/// handling — the unsupervised sentiment path (§6 "lexicon-based methods",
/// Taboada et al.). Strengths are in [-1, 1]; "good" ≈ 0.5, "excellent" ≈
/// 0.95, "awful" ≈ -0.9, matching the paper's premise that sentiment is a
/// linear scale rather than a boolean.
class SentimentLexicon {
 public:
  /// The built-in general-domain lexicon (shared, immutable).
  static const SentimentLexicon& Default();

  /// Signed strength of an opinion word; 0.0 when not an opinion word.
  double OpinionStrength(std::string_view word) const;

  bool IsOpinionWord(std::string_view word) const {
    return OpinionStrength(word) != 0.0;
  }

  /// Multiplier of an intensity modifier ("very" -> 1.5, "slightly" ->
  /// 0.5); 1.0 when the word is not a modifier.
  double ModifierFactor(std::string_view word) const;

  /// True for negation words ("not", "never", "no", "n't", ...).
  bool IsNegator(std::string_view word) const;

  /// What the lexicon knows about one word.
  struct Row {
    double strength = 0.0;  // opinion strength; 0 for non-opinion words
    double factor = 1.0;    // intensity multiplier; 1 for non-modifiers
    bool negator = false;
  };

  /// The row of `word`, valid as long as the lexicon; every word the
  /// lexicon does not list shares one row of {0, 1, false}.
  const Row& RowOf(std::string_view word) const;

  /// Sentence score in [-1, 1]: each opinion word contributes its strength,
  /// scaled by intensity modifiers and flipped (damped by 0.8) by negators
  /// in the three preceding tokens; contributions are averaged and clamped.
  /// Returns 0 for sentences with no opinion words. Looks each token's row
  /// up once, by view, and scores the rows with ScoreRows.
  double ScoreSentence(std::span<const std::string_view> tokens) const;

  /// The one scoring loop: ScoreSentence of the sentence whose tokens have
  /// these rows (RowOf of this lexicon), in order.
  double ScoreRows(std::span<const Row* const> rows) const;

  /// Every opinion word with its strength (for Double Propagation seeds).
  std::vector<std::pair<std::string, double>> AllOpinionWords() const;

  /// A positive (negative) opinion word whose strength is closest to
  /// `target`; lets the corpus generator realize a numeric sentiment as
  /// text. Never returns an empty string.
  const std::string& WordForStrength(double target) const;

  /// Like WordForStrength but restricted to predicative adjectives, so
  /// generated sentences stay grammatical ("the screen is {word}").
  const std::string& AdjectiveForStrength(double target) const;

  /// Internal lookup tables; public only so the .cpp builder can define it.
  struct Tables;

 private:
  SentimentLexicon();

  const Tables* tables_;
};

}  // namespace osrs

#endif  // OSRS_SENTIMENT_LEXICON_H_
