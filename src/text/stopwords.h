#ifndef P2PDT_TEXT_STOPWORDS_H_
#define P2PDT_TEXT_STOPWORDS_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace p2pdt {

/// Combined stop-word and sensitive-word filter.
///
/// Implements the first filtering stage of the paper's preprocessing:
/// "stop words that contain little recognition values (e.g., a, for, and,
/// not, etc), as well as user-specified sensitive words are filtered out
/// from all documents" (Sec. 2). Sensitive words are the privacy hook —
/// terms the user never wants to leave the machine, not even as word ids.
class StopWordFilter {
 public:
  /// Constructs with the built-in English stop list.
  StopWordFilter();

  /// Constructs with a custom stop list (lowercase expected).
  explicit StopWordFilter(std::vector<std::string> stop_words);

  /// Returns the built-in English stop list (a superset of the paper's
  /// examples; standard SMART-style list).
  static const std::vector<std::string>& DefaultEnglishStopWords();

  /// Adds a user-specified sensitive word; filtered identically to stop
  /// words but tracked separately so callers can audit what is suppressed.
  void AddSensitiveWord(std::string_view word);

  /// Adds several sensitive words at once.
  void AddSensitiveWords(const std::vector<std::string>& words);

  /// True when the token must be removed (stop word or sensitive word).
  bool IsFiltered(std::string_view token) const;

  bool IsStopWord(std::string_view token) const;
  bool IsSensitive(std::string_view token) const;

  /// Removes filtered tokens, preserving order of the survivors.
  std::vector<std::string> Filter(const std::vector<std::string>& tokens) const;

  std::size_t num_stop_words() const { return stop_words_.size(); }
  std::size_t num_sensitive_words() const { return sensitive_words_.size(); }

 private:
  // Transparent lookup: a token view is checked without a string copy.
  using WordSet =
      std::unordered_set<std::string, StringViewHash, std::equal_to<>>;
  WordSet stop_words_;
  WordSet sensitive_words_;
};

}  // namespace p2pdt

#endif  // P2PDT_TEXT_STOPWORDS_H_
