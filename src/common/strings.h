#ifndef OSRS_COMMON_STRINGS_H_
#define OSRS_COMMON_STRINGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace osrs {

/// Transparent hash for string-keyed unordered containers: with
/// std::equal_to<> it lets find/count take a std::string_view without
/// building a temporary std::string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// A std::string-keyed hash map that is looked up by view.
template <typename Value>
using StringMap =
    std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

/// Splits `text` on `delimiter`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Splits `text` on any ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lowercase of one byte: 'A'-'Z' map to 'a'-'z' and every other
/// byte is returned unchanged, whatever the process locale.
inline char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII lowercase copy (LowerAscii of every byte).
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes `text` for embedding inside a JSON string literal (RFC 8259):
/// quotes, backslashes, and the two-character escapes \b \f \n \r \t, with
/// every remaining control character below 0x20 rendered as \u00XX. Bytes
/// >= 0x80 pass through untouched (the output stays valid for UTF-8
/// input). Returns the escaped body without surrounding quotes.
std::string JsonEscape(std::string_view text);

/// Parses a whole string as a base-10 integer. Returns false (leaving
/// `out` untouched) on empty input, trailing garbage, or overflow — unlike
/// std::stol it never throws, so it is safe on untrusted input.
bool ParseInt64(std::string_view text, int64_t* out);

/// Parses a whole string as a double; same contract as ParseInt64.
bool ParseDouble(std::string_view text, double* out);

}  // namespace osrs

#endif  // OSRS_COMMON_STRINGS_H_
