#include "text/tokenizer.h"

#include "common/strings.h"

namespace osrs {
namespace {

bool IsWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

/// The one scanner behind every entry point: calls `emit(begin, end)` for
/// the byte range of each token of `text`, left to right. An apostrophe
/// stays inside a token only when a word character follows it.
template <typename Emit>
void ScanTokens(std::string_view text, Emit&& emit) {
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    if (!IsWordChar(text[i])) {
      ++i;
      continue;
    }
    const size_t begin = i++;
    while (i < n && (IsWordChar(text[i]) ||
                     (text[i] == '\'' && i + 1 < n && IsWordChar(text[i + 1])))) {
      ++i;
    }
    emit(begin, i);
  }
}

}  // namespace

std::vector<TokenSpan> TokenizeWithOffsets(std::string_view text) {
  std::vector<TokenSpan> tokens;
  ScanTokens(text, [&](size_t begin, size_t end) {
    tokens.push_back({ToLower(text.substr(begin, end - begin)), begin});
  });
  return tokens;
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  ScanTokens(text, [&](size_t begin, size_t end) {
    tokens.push_back(ToLower(text.substr(begin, end - begin)));
  });
  return tokens;
}

void TokenizeViews(std::string_view text, std::string* lowered,
                   std::vector<std::string_view>* tokens) {
  lowered->assign(text);
  for (char& c : *lowered) c = LowerAscii(c);
  tokens->clear();
  const std::string_view view = *lowered;
  ScanTokens(view, [&](size_t begin, size_t end) {
    tokens->push_back(view.substr(begin, end - begin));
  });
}

std::vector<std::string_view> AsViews(const std::vector<std::string>& tokens) {
  return {tokens.begin(), tokens.end()};
}

}  // namespace osrs
