#ifndef P2PDT_TEXT_PORTER_STEMMER_H_
#define P2PDT_TEXT_PORTER_STEMMER_H_

#include <string>
#include <string_view>

namespace p2pdt {

/// Classic Porter stemming algorithm (Porter, 1980), steps 1a–5b.
///
/// The paper normalizes words with "the porter stemming algorithm to remove
/// the commoner morphological and inflexional endings (English)" (Sec. 2).
/// This is a faithful implementation of the original 1980 rule set — not
/// Porter2/Snowball — matching the reference behaviour (e.g. "caresses" →
/// "caress", "ponies" → "poni", "relational" → "relat").
///
/// Input is expected to be lowercase ASCII; non-alphabetic input is returned
/// unchanged.
class PorterStemmer {
 public:
  /// Stems one token.
  std::string Stem(std::string_view word) const;
};

}  // namespace p2pdt

#endif  // P2PDT_TEXT_PORTER_STEMMER_H_
