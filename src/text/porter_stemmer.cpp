#include "text/porter_stemmer.h"

#include <functional>

#include "common/logging.h"

namespace osrs {
namespace {

/// Working buffer for one stemming run; implements the measure/condition
/// helpers of Porter's paper over the current (possibly shortened) word.
class Stemmer {
 public:
  explicit Stemmer(std::string_view word) : w_(word) {}

  std::string Run() {
    if (w_.size() <= 2) return w_;
    Step1a();
    Step1b();
    Step1c();
    Step2();
    Step3();
    Step4();
    Step5a();
    Step5b();
    return w_;
  }

 private:
  bool IsConsonant(size_t i) const {
    char c = w_[i];
    switch (c) {
      case 'a':
      case 'e':
      case 'i':
      case 'o':
      case 'u':
        return false;
      case 'y':
        return i == 0 ? true : !IsConsonant(i - 1);
      default:
        return true;
    }
  }

  /// Porter's m: the number of VC sequences in w_[0..end).
  int Measure(size_t end) const {
    int m = 0;
    size_t i = 0;
    // Skip initial consonants.
    while (i < end && IsConsonant(i)) ++i;
    while (i < end) {
      // Vowel run.
      while (i < end && !IsConsonant(i)) ++i;
      if (i >= end) break;
      // Consonant run completes a VC.
      ++m;
      while (i < end && IsConsonant(i)) ++i;
    }
    return m;
  }

  bool HasVowel(size_t end) const {
    for (size_t i = 0; i < end; ++i) {
      if (!IsConsonant(i)) return true;
    }
    return false;
  }

  bool EndsWithDoubleConsonant() const {
    size_t n = w_.size();
    return n >= 2 && w_[n - 1] == w_[n - 2] && IsConsonant(n - 1);
  }

  /// *o: stem ends cvc where the final c is not w, x or y.
  bool EndsCvc(size_t end) const {
    if (end < 3) return false;
    if (!IsConsonant(end - 3) || IsConsonant(end - 2) ||
        !IsConsonant(end - 1)) {
      return false;
    }
    char c = w_[end - 1];
    return c != 'w' && c != 'x' && c != 'y';
  }

  bool EndsWith(std::string_view suffix) const {
    return w_.size() >= suffix.size() &&
           std::string_view(w_).substr(w_.size() - suffix.size()) == suffix;
  }

  size_t StemLen(std::string_view suffix) const {
    return w_.size() - suffix.size();
  }

  /// If the word ends with `suffix` and m(stem) > threshold, replaces the
  /// suffix and returns true.
  bool ReplaceIfMeasure(std::string_view suffix, std::string_view replacement,
                        int threshold) {
    if (!EndsWith(suffix)) return false;
    size_t stem = StemLen(suffix);
    if (Measure(stem) > threshold) {
      w_.resize(stem);
      w_.append(replacement);
      return true;
    }
    return true;  // suffix matched; rule consumed even if condition failed
  }

  void Step1a() {
    if (EndsWith("sses")) {
      w_.resize(w_.size() - 2);
    } else if (EndsWith("ies")) {
      w_.resize(w_.size() - 2);
    } else if (EndsWith("ss")) {
      // keep
    } else if (EndsWith("s")) {
      w_.resize(w_.size() - 1);
    }
  }

  void Step1b() {
    bool cleanup = false;
    if (EndsWith("eed")) {
      if (Measure(StemLen("eed")) > 0) w_.resize(w_.size() - 1);
    } else if (EndsWith("ed") && HasVowel(StemLen("ed"))) {
      w_.resize(w_.size() - 2);
      cleanup = true;
    } else if (EndsWith("ing") && HasVowel(StemLen("ing"))) {
      w_.resize(w_.size() - 3);
      cleanup = true;
    }
    if (cleanup) {
      if (EndsWith("at") || EndsWith("bl") || EndsWith("iz")) {
        w_.push_back('e');
      } else if (EndsWithDoubleConsonant() && !EndsWith("l") &&
                 !EndsWith("s") && !EndsWith("z")) {
        w_.resize(w_.size() - 1);
      } else if (Measure(w_.size()) == 1 && EndsCvc(w_.size())) {
        w_.push_back('e');
      }
    }
  }

  void Step1c() {
    if (EndsWith("y") && HasVowel(w_.size() - 1)) {
      w_[w_.size() - 1] = 'i';
    }
  }

  void Step2() {
    static constexpr std::pair<std::string_view, std::string_view> kRules[] = {
        {"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
        {"anci", "ance"},   {"izer", "ize"},    {"abli", "able"},
        {"alli", "al"},     {"entli", "ent"},   {"eli", "e"},
        {"ousli", "ous"},   {"ization", "ize"}, {"ation", "ate"},
        {"ator", "ate"},    {"alism", "al"},    {"iveness", "ive"},
        {"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
        {"iviti", "ive"},   {"biliti", "ble"},
    };
    for (const auto& [suffix, replacement] : kRules) {
      if (EndsWith(suffix)) {
        ReplaceIfMeasure(suffix, replacement, 0);
        return;
      }
    }
  }

  void Step3() {
    static constexpr std::pair<std::string_view, std::string_view> kRules[] = {
        {"icate", "ic"}, {"ative", ""},  {"alize", "al"}, {"iciti", "ic"},
        {"ical", "ic"},  {"ful", ""},    {"ness", ""},
    };
    for (const auto& [suffix, replacement] : kRules) {
      if (EndsWith(suffix)) {
        ReplaceIfMeasure(suffix, replacement, 0);
        return;
      }
    }
  }

  void Step4() {
    static constexpr std::string_view kSuffixes[] = {
        "al",   "ance", "ence", "er",  "ic",   "able", "ible", "ant",
        "ement", "ment", "ent",  "ou",  "ism",  "ate",  "iti",  "ous",
        "ive",  "ize",
    };
    for (std::string_view suffix : kSuffixes) {
      if (!EndsWith(suffix)) continue;
      size_t stem = StemLen(suffix);
      if (Measure(stem) > 1) w_.resize(stem);
      return;
    }
    // (m>1 and (*S or *T)) ION ->
    if (EndsWith("ion")) {
      size_t stem = StemLen("ion");
      if (Measure(stem) > 1 && stem > 0 &&
          (w_[stem - 1] == 's' || w_[stem - 1] == 't')) {
        w_.resize(stem);
      }
    }
  }

  void Step5a() {
    if (!EndsWith("e")) return;
    size_t stem = w_.size() - 1;
    int m = Measure(stem);
    if (m > 1 || (m == 1 && !EndsCvc(stem))) {
      w_.resize(stem);
    }
  }

  void Step5b() {
    if (Measure(w_.size()) > 1 && EndsWithDoubleConsonant() &&
        EndsWith("l")) {
      w_.resize(w_.size() - 1);
    }
  }

  std::string w_;
};

}  // namespace

std::string PorterStem(std::string_view word) { return Stemmer(word).Run(); }

StemMemo::StemMemo() : slots_(std::make_unique<Slot[]>(kSlots)) {}

size_t StemMemo::SlotOf(std::string_view word) {
  return std::hash<std::string_view>{}(word) & (kSlots - 1);
}

std::string_view StemMemo::Stem(std::string_view word) {
  if (word.size() > kMaxWordLength) {
    long_stem_ = PorterStem(word);
    return long_stem_;
  }
  Slot& slot = slots_[SlotOf(word)];
  if (std::string_view(slot.word, slot.word_length) != word) {
    std::string stem = PorterStem(word);
    // Porter only strips or rewrites suffixes: a stem never outgrows its
    // word, so it fits the slot.
    OSRS_CHECK_LE(stem.size(), word.size());
    word.copy(slot.word, word.size());
    stem.copy(slot.stem, stem.size());
    slot.word_length = static_cast<uint8_t>(word.size());
    slot.stem_length = static_cast<uint8_t>(stem.size());
  }
  return {slot.stem, slot.stem_length};
}

StemMemo& StemMemo::ForThisThread() {
  thread_local StemMemo memo;
  return memo;
}

}  // namespace osrs
