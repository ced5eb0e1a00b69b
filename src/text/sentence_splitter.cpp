#include "text/sentence_splitter.h"

#include <algorithm>
#include <array>

#include "common/strings.h"

namespace osrs {
namespace {

/// Common abbreviations whose trailing period does not end a sentence.
constexpr std::array<std::string_view, 12> kAbbreviations = {
    "dr", "mr", "mrs", "ms", "prof", "vs", "etc", "e.g", "i.e", "st", "jr",
    "approx"};

constexpr size_t kLongestAbbreviation = [] {
  size_t longest = 0;
  for (std::string_view abbr : kAbbreviations) {
    longest = std::max(longest, abbr.size());
  }
  return longest;
}();

bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsTerminator(char c) { return c == '.' || c == '!' || c == '?'; }

/// ASCII case-insensitive equality against a lowercase `lower`.
bool EqualsLower(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    if (LowerAscii(text[i]) != lower[i]) return false;
  }
  return true;
}

bool EndsWithAbbreviation(std::string_view text, size_t period_pos) {
  // The word (possibly containing periods, for "e.g.") that ends at
  // period_pos. The scan stops one byte past the longest abbreviation: a
  // longer word is neither an initial nor an abbreviation, however long it
  // is, and an unbounded scan would walk a run of letters and periods back
  // to its start at every period.
  size_t start = period_pos;
  while (start > 0 && period_pos - start <= kLongestAbbreviation &&
         (IsAsciiAlpha(text[start - 1]) || text[start - 1] == '.')) {
    --start;
  }
  std::string_view word = text.substr(start, period_pos - start);
  // Single letters ("J. Smith") are initials.
  if (word.size() == 1) return true;
  for (std::string_view abbr : kAbbreviations) {
    if (EqualsLower(word, abbr)) return true;
  }
  return false;
}

/// The one scanner behind both entry points: calls `emit(sentence)` for
/// each non-empty trimmed sentence of `text`, left to right.
template <typename Emit>
void ScanSentences(std::string_view text, Emit&& emit) {
  auto cut = [&](size_t begin, size_t end) {
    std::string_view trimmed = Trim(text.substr(begin, end - begin));
    if (!trimmed.empty()) emit(trimmed);
  };
  size_t begin = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\n' || c == '!' || c == '?' ||
        (c == '.' && !EndsWithAbbreviation(text, i))) {
      cut(begin, i);
      // Consume runs of terminators ("!!", "...").
      while (i + 1 < text.size() && IsTerminator(text[i + 1])) ++i;
      begin = i + 1;
    }
  }
  cut(begin, text.size());
}

}  // namespace

std::vector<std::string> SplitSentences(std::string_view text) {
  std::vector<std::string> sentences;
  ScanSentences(text, [&](std::string_view sentence) {
    sentences.emplace_back(sentence);
  });
  return sentences;
}

void SplitSentenceViews(std::string_view text,
                        std::vector<std::string_view>* sentences) {
  sentences->clear();
  ScanSentences(text, [&](std::string_view sentence) {
    sentences->push_back(sentence);
  });
}

}  // namespace osrs
