#ifndef P2PDT_P2PDMT_DATA_DISTRIBUTION_H_
#define P2PDT_P2PDMT_DATA_DISTRIBUTION_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/dataset.h"

namespace p2pdt {

/// How many documents each peer holds ("size distribution of training
/// data", paper Sec. 2 / demonstration Sec. 3).
enum class SizeDistribution {
  /// Every peer gets ~the same number of documents.
  kUniform,
  /// Zipf-skewed peer sizes: a few data-rich peers, a long tail of sparse
  /// ones — the realistic shape for user-generated content.
  kZipf,
};

/// Which documents each peer holds ("class distribution of training data").
enum class ClassDistribution {
  /// Documents assigned at random: every peer sees every tag (IID).
  kIid,
  /// Per-peer Dirichlet tag preferences: peers specialize in few tags
  /// (non-IID) — the hard case for collaboration.
  kNonIidDirichlet,
  /// Documents follow their generating user (user i → peer i mod N); the
  /// most realistic option, available when user ownership is known.
  kByUser,
};

struct DataDistributionOptions {
  SizeDistribution size = SizeDistribution::kUniform;
  /// Zipf exponent for kZipf peer sizes.
  double size_zipf_exponent = 0.8;
  ClassDistribution cls = ClassDistribution::kIid;
  /// Dirichlet concentration for kNonIidDirichlet (smaller = more skewed).
  double dirichlet_alpha = 0.3;
  uint64_t seed = 5;

  bool operator==(const DataDistributionOptions&) const = default;
};

const char* SizeDistributionToString(SizeDistribution d);
const char* ClassDistributionToString(ClassDistribution d);

/// Partitions `data` across `num_peers` peers: every peer gets a
/// DatasetShard view into the shared corpus instead of a materialized copy.
/// Per-peer cost is one uint32_t per held document; the corpus is stored
/// once, total. Every example is assigned to exactly one peer. For kByUser,
/// `doc_user` must be non-null and parallel to data->examples(). Peers may
/// end up empty under heavy skew — that is intended (free-riders exist in
/// real P2P networks).
Result<std::vector<DatasetShard>> DistributeDataShared(
    std::shared_ptr<const MultiLabelDataset> data, std::size_t num_peers,
    const DataDistributionOptions& options,
    const std::vector<std::size_t>* doc_user = nullptr);

/// Diagnostics for a distribution: per-peer sizes and tag-skew summary.
struct DistributionSummary {
  std::size_t num_peers = 0;
  std::size_t num_examples = 0;
  std::size_t min_peer_size = 0;
  std::size_t max_peer_size = 0;
  double mean_peer_size = 0.0;
  /// Gini coefficient of peer sizes (0 = perfectly even).
  double size_gini = 0.0;
  /// Mean per-peer fraction of the tag universe actually present locally.
  double mean_tag_coverage = 0.0;
  std::string ToString() const;
};

DistributionSummary SummarizeDistribution(
    const std::vector<DatasetShard>& peers, TagId num_tags);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_DATA_DISTRIBUTION_H_
