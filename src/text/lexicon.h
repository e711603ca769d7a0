#ifndef P2PDT_TEXT_LEXICON_H_
#define P2PDT_TEXT_LEXICON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace p2pdt {

/// Bidirectional word ↔ id mapping.
///
/// The paper represents each document as a vector indexed by word id
/// ("the attribute id represents the word id", Sec. 2). In the P2P setting
/// ids must be *consistent across peers without coordination*, otherwise
/// exchanged models would be meaningless. P2PDocTagger achieves this the
/// same way DHTs assign keys: by hashing. A `Lexicon` can therefore operate
/// in two modes:
///
///  * **Growing** (default): ids are assigned densely in first-seen order.
///    Used inside a single peer or by the centralized baseline.
///  * **Hashed**: the id of a word is a stable 32-bit hash (FNV-1a) folded
///    into a configured dimension. No state needs to be shared between
///    peers; collisions act as (rare) feature collisions, the standard
///    hashing-trick trade-off.
class Lexicon {
 public:
  /// Creates a growing lexicon.
  Lexicon() = default;

  /// Creates a hashed lexicon with the given dimensionality (must be > 0).
  static Lexicon Hashed(uint32_t dimensions);

  /// Returns the id of `word`, inserting it in growing mode. In hashed mode
  /// this never mutates and always succeeds.
  uint32_t GetOrAddId(std::string_view word);

  /// Returns the id of `word` or an error when absent (growing mode only —
  /// hashed mode always resolves).
  Result<uint32_t> GetId(std::string_view word) const;

  /// Reverse lookup: the word for an id. In hashed mode only words observed
  /// via GetOrAddId are reversible (hashing is lossy by design — this is
  /// part of the privacy story: a receiving peer cannot invert unknown ids).
  Result<std::string> GetWord(uint32_t id) const;

  /// Number of distinct words observed.
  std::size_t size() const { return word_to_id_.size(); }

  /// Upper bound on ids: observed count in growing mode, configured
  /// dimension count in hashed mode.
  uint32_t dimension_bound() const {
    return hashed_ ? dimensions_ : static_cast<uint32_t>(id_to_word_.size());
  }

  bool hashed() const { return hashed_; }

  /// Stable FNV-1a 32-bit hash used in hashed mode (exposed so peers can
  /// compute ids independently).
  static uint32_t HashWord(std::string_view word);

 private:
  bool hashed_ = false;
  uint32_t dimensions_ = 0;
  // Transparent lookup: GetOrAddId / GetId copy a word only to insert it.
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      word_to_id_;
  std::vector<std::string> id_to_word_;                    // growing mode
  std::unordered_map<uint32_t, std::string> hash_to_word_;  // hashed mode
};

}  // namespace p2pdt

#endif  // P2PDT_TEXT_LEXICON_H_
