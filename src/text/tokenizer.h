#ifndef P2PDT_TEXT_TOKENIZER_H_
#define P2PDT_TEXT_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace p2pdt {

/// Options controlling tokenization of raw document text.
struct TokenizerOptions {
  /// Lowercase tokens (matches IR convention; the paper's preprocessing is
  /// case-insensitive because tags and words are matched by id).
  bool lowercase = true;
  /// Minimum token length after normalization; shorter tokens are dropped.
  std::size_t min_token_length = 2;
  /// Maximum token length; longer tokens (base64 blobs, URLs run-ons) are
  /// dropped rather than truncated.
  std::size_t max_token_length = 40;
  /// Keep tokens containing digits ("win32", "2010"). Pure punctuation is
  /// always dropped.
  bool keep_alphanumeric = true;
};

/// Splits raw text into word tokens: maximal runs of ASCII letters/digits
/// (plus intra-word apostrophes, which are stripped). Everything else —
/// punctuation, whitespace, control characters — is a separator.
///
/// This is the first stage of the paper's Document Preprocessing step
/// (Sec. 2): tokenize → stop-word / sensitive-word filter → Porter stem →
/// vectorize.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  /// Tokenizes `text` into normalized tokens.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Calls `emit(std::string_view token)` for each normalized token of
  /// `text`, in order. Tokens are assembled in `buffer` (reused across
  /// calls, so a warm buffer allocates nothing); each view is valid only
  /// for the duration of its `emit` call. Every tokenizing path in the text
  /// layer runs through this one implementation.
  template <typename Emit>
  void ForEachToken(std::string_view text, std::string& buffer,
                    Emit&& emit) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  TokenizerOptions options_;
};

template <typename Emit>
void Tokenizer::ForEachToken(std::string_view text, std::string& buffer,
                             Emit&& emit) const {
  buffer.clear();
  bool has_digit = false;
  auto flush = [&] {
    if (!buffer.empty()) {
      if ((!has_digit || options_.keep_alphanumeric) &&
          buffer.size() >= options_.min_token_length &&
          buffer.size() <= options_.max_token_length) {
        emit(std::string_view(buffer));
      }
      buffer.clear();
    }
    has_digit = false;
  };

  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalpha(c)) {
      buffer += options_.lowercase ? static_cast<char>(std::tolower(c)) : raw;
    } else if (std::isdigit(c)) {
      buffer += raw;
      has_digit = true;
    } else if (raw == '\'' && !buffer.empty()) {
      // Intra-word apostrophe ("don't" -> "dont"): strip, keep the run going.
      continue;
    } else {
      flush();
    }
  }
  flush();
}

}  // namespace p2pdt

#endif  // P2PDT_TEXT_TOKENIZER_H_
