#ifndef P2PDT_COMMON_STRING_UTIL_H_
#define P2PDT_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace p2pdt {

/// Transparent hash for unordered containers keyed by std::string: paired
/// with std::equal_to<>, find/count accept a std::string_view without
/// building a temporary string.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Splits `s` on any occurrence of `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True when `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a byte count as a human-readable string ("1.5 MiB").
std::string HumanBytes(double bytes);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_STRING_UTIL_H_
