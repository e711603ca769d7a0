#ifndef P2PDT_CORPUS_VECTORIZE_H_
#define P2PDT_CORPUS_VECTORIZE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "corpus/generator.h"
#include "ml/dataset.h"
#include "text/preprocessor.h"

namespace p2pdt {

/// A corpus run through the full preprocessing pipeline: every document as
/// a sparse vector, tags as dense ids, plus the user ownership needed to
/// distribute documents onto peers.
struct VectorizedCorpus {
  MultiLabelDataset dataset;
  /// Owning user of dataset example i (parallel to dataset.examples()).
  std::vector<std::size_t> doc_user;
  /// Tag-name universe; index = TagId.
  std::vector<std::string> tag_names;
  std::unordered_map<std::string, TagId> tag_ids;
  std::size_t num_users = 0;
};

/// Preprocesses every document of `corpus` with `preprocessor` (tokenize →
/// filter → stem → vectorize, as one Preprocessor::ProcessAll batch) and
/// maps tag names to dense ids in corpus.tag_names order.
Result<VectorizedCorpus> VectorizeCorpus(const GeneratedCorpus& corpus,
                                         Preprocessor& preprocessor);

/// Convenience: generate + vectorize in one call with a default pipeline.
Result<VectorizedCorpus> MakeVectorizedCorpus(const CorpusOptions& options);

/// A drifting document stream run through the same preprocessing pipeline.
/// The whole stream is vectorized at once (the tag universe and lexicon are
/// fixed up front), so every epoch's documents live in one dataset and
/// per-epoch slices are just index ranges.
struct VectorizedStream {
  VectorizedCorpus corpus;
  /// Epoch of dataset example i (parallel to corpus.dataset).
  std::vector<std::size_t> doc_epoch;
  std::size_t num_epochs = 0;
  /// Earliest epoch any drift event perturbs (num_epochs when stationary).
  std::size_t first_drift_epoch = 0;
};

/// Preprocesses every document of `stream` in stream (epoch-major) order.
Result<VectorizedStream> VectorizeStream(const StreamedCorpus& stream,
                                         Preprocessor& preprocessor);

/// Convenience: generate + vectorize a drifting stream in one call.
Result<VectorizedStream> MakeVectorizedStream(const StreamOptions& options);

}  // namespace p2pdt

#endif  // P2PDT_CORPUS_VECTORIZE_H_
