#ifndef OSRS_TEXT_TOKENIZER_H_
#define OSRS_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace osrs {

/// Lowercased word tokens of `text`. A token is a maximal run of ASCII
/// letters/digits, with embedded apostrophes kept ("don't" -> "don't",
/// hyphens split: "wi-fi" -> "wi", "fi"). Punctuation is dropped. Bytes
/// are classified as ASCII, whatever the process locale, so bytes >= 0x80
/// never belong to a token.
std::vector<std::string> Tokenize(std::string_view text);

/// Like Tokenize but also records each token's byte offset in `text`.
struct TokenSpan {
  std::string token;  // lowercased
  size_t offset;      // byte offset of the first character
};
std::vector<TokenSpan> TokenizeWithOffsets(std::string_view text);

/// Tokenize without a string per token, for the annotation hot path: writes
/// `text` ASCII-lowercased into `*lowered` and replaces `*tokens` with views
/// of the tokens inside it — the tokens Tokenize returns, in order. The
/// views stay valid until `*lowered` next changes; callers reuse both
/// buffers across sentences.
void TokenizeViews(std::string_view text, std::string* lowered,
                   std::vector<std::string_view>* tokens);

/// Views of `tokens`: passes a Tokenize result to the span-of-views
/// signatures of the extraction and sentiment layers.
std::vector<std::string_view> AsViews(const std::vector<std::string>& tokens);

}  // namespace osrs

#endif  // OSRS_TEXT_TOKENIZER_H_
