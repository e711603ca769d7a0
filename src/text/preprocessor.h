#ifndef P2PDT_TEXT_PREPROCESSOR_H_
#define P2PDT_TEXT_PREPROCESSOR_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/sparse_vector.h"
#include "text/lexicon.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vectorizer.h"

namespace p2pdt {

/// The complete Document Preprocessing stage of Fig. 1, as one component:
///
///   raw text → tokenize → stop-word & sensitive-word filter
///            → Porter stem → sparse TF vector over a shared lexicon.
///
/// One `Preprocessor` is owned per peer; with a hashed lexicon all peers
/// produce id-compatible vectors without exchanging vocabulary state.
struct PreprocessorOptions {
  TokenizerOptions tokenizer;
  VectorizerOptions vectorizer;
  /// When > 0 the lexicon uses the hashing trick with this many
  /// dimensions; when 0 ids grow densely in first-seen order.
  uint32_t hashed_dimensions = 1 << 18;
  /// User-specified sensitive words removed before anything leaves the
  /// machine (paper Sec. 2).
  std::vector<std::string> sensitive_words;
};

class Preprocessor {
 public:
  using Options = PreprocessorOptions;

  explicit Preprocessor(Options options = Options());

  /// Runs the token pipeline only (no vectorization): tokenize, filter,
  /// stem. Useful for inspection and for IDF fitting.
  std::vector<std::string> Analyze(std::string_view text) const;

  /// Full pipeline: raw text to sparse vector, growing the lexicon.
  SparseVector Process(std::string_view text);

  /// Full pipeline against the frozen lexicon (test-time path).
  SparseVector ProcessConst(std::string_view text) const;

  /// Documents per ProcessAll chunk: the unit of parallel work and the
  /// scope of its token memo.
  static constexpr std::size_t kBatchChunkDocs = 256;
  /// Chunks per ProcessAll wave: the phases below run on this many chunks
  /// at a time, which bounds the batch's temporaries. Results do not
  /// depend on it.
  static constexpr std::size_t kBatchWaveChunks = 16;

  /// Batch Process: element i equals Process(texts[i]), and the lexicon
  /// ends exactly as that loop over i = 0, 1, ... would leave it (same
  /// words, same ids, same first-writer-wins reverse entries).
  ///
  /// Runs in three phases over fixed chunks of kBatchChunkDocs documents,
  /// one wave of kBatchWaveChunks chunks after another:
  ///  1. analyze (parallel): each chunk tokenizes its documents, filters
  ///     and stems each distinct raw token once, and records its stems in
  ///     first-seen order plus a (local stem, term count) list per document;
  ///  2. commit (serial, chunk order): each chunk's stems go through
  ///     Lexicon::GetOrAddId, replaying the per-document insert order;
  ///  3. finish (parallel): local stems become lexicon ids and each
  ///     document goes through Vectorizer::Finish.
  /// Output is independent of the thread count; P2PDT_THREADS=1 or a call
  /// nested in a pool task runs every phase on the calling thread.
  std::vector<SparseVector> ProcessAll(std::span<const std::string_view> texts);

  Lexicon& lexicon() { return lexicon_; }
  const Lexicon& lexicon() const { return lexicon_; }
  StopWordFilter& stop_words() { return stop_words_; }
  Vectorizer& vectorizer() { return vectorizer_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }

 private:
  Options options_;
  Tokenizer tokenizer_;
  StopWordFilter stop_words_;
  PorterStemmer stemmer_;
  Vectorizer vectorizer_;
  Lexicon lexicon_;
};

}  // namespace p2pdt

#endif  // P2PDT_TEXT_PREPROCESSOR_H_
