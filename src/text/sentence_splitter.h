#ifndef OSRS_TEXT_SENTENCE_SPLITTER_H_
#define OSRS_TEXT_SENTENCE_SPLITTER_H_

#include <string>
#include <string_view>
#include <vector>

namespace osrs {

/// Splits review text into sentences on '.', '!', '?' and newlines, with a
/// small abbreviation list ("dr.", "mr.", "e.g.", ...) to avoid false
/// breaks — sufficient for the short informal sentences of online reviews.
/// Empty/whitespace-only sentences are dropped; terminators are removed.
/// Time is linear in the text's length, whatever its mix of letters and
/// periods.
std::vector<std::string> SplitSentences(std::string_view text);

/// SplitSentences without a string per sentence, for the annotation hot
/// path: replaces `*sentences` with views into `text` of the sentences
/// SplitSentences returns, in order. Callers reuse the vector across texts.
void SplitSentenceViews(std::string_view text,
                        std::vector<std::string_view>* sentences);

}  // namespace osrs

#endif  // OSRS_TEXT_SENTENCE_SPLITTER_H_
