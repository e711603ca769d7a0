#ifndef P2PDT_ML_DATASET_H_
#define P2PDT_ML_DATASET_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sparse_vector.h"

namespace p2pdt {

/// Tag identifier. Tags are open-vocabulary strings at the application
/// layer (core/); the learning layer works on dense integer ids.
using TagId = uint32_t;

/// One binary training example: feature vector and label y ∈ {-1, +1}.
struct Example {
  SparseVector x;
  double y = 1.0;
};

/// One multi-label example: a document vector and the set of tags assigned
/// to it (sorted, unique).
struct MultiLabelExample {
  SparseVector x;
  std::vector<TagId> tags;

  bool HasTag(TagId tag) const;
};

class DatasetShard;

/// A multi-label dataset with a known tag-universe size.
///
/// This is the paper's D = {d_1, ..., d_l}: what a single peer holds
/// locally, or the pooled corpus in the centralized baseline.
class MultiLabelDataset {
 public:
  MultiLabelDataset() = default;
  explicit MultiLabelDataset(TagId num_tags) : num_tags_(num_tags) {}

  void Add(MultiLabelExample example);

  std::size_t size() const { return examples_.size(); }
  bool empty() const { return examples_.empty(); }
  TagId num_tags() const { return num_tags_; }
  void set_num_tags(TagId n) { num_tags_ = n; }

  const MultiLabelExample& operator[](std::size_t i) const {
    return examples_[i];
  }
  const std::vector<MultiLabelExample>& examples() const { return examples_; }

  /// Reduces to the binary one-against-all problem for `tag`: examples
  /// carrying the tag become +1, all others −1 (paper Sec. 2: "data from a
  /// target tag belongs to one class and all data from other tags belong to
  /// another class").
  std::vector<Example> OneAgainstAll(TagId tag) const;

  /// Number of examples carrying each tag.
  std::vector<std::size_t> TagCounts() const;

  /// Splits into (train, test) with the given train fraction, shuffled
  /// deterministically by `rng`. The paper's demonstration uses a 20/80
  /// split (train_fraction = 0.2).
  std::pair<MultiLabelDataset, MultiLabelDataset> Split(double train_fraction,
                                                        Rng& rng) const;

  /// Appends a peer's documents (num_tags becomes the max of both tag
  /// universes).
  void Merge(const DatasetShard& other);

  /// Total wire size of all vectors plus tag lists — what shipping this
  /// dataset to a central site would cost.
  std::size_t WireSize() const;

 private:
  std::vector<MultiLabelExample> examples_;
  TagId num_tags_ = 0;
};

/// Flyweight view of a peer's local data: a shared immutable corpus plus
/// the indices of the examples this peer holds.
///
/// At 100k+ peers, giving every peer a materialized `MultiLabelDataset`
/// copy multiplies the corpus by the replication factor of the data
/// distribution; the shard keeps exactly one copy of every document (the
/// shared corpus, `shared_ptr<const>` so it is immutable and thread-safe to
/// read) and charges each peer only a `uint32_t` per held document.
///
/// The accessor surface mirrors the subset of MultiLabelDataset the
/// classifiers use — size/empty/operator[]/OneAgainstAll/TagCounts — and
/// every accessor returns bit-identical results to the materialized
/// equivalent (`Materialize()`), so a classifier trains the same models
/// whether its peers share one corpus or each own theirs.
class DatasetShard {
 public:
  DatasetShard() = default;
  /// View of `indices` (in order) into `corpus`. The corpus must outlive
  /// nothing — the shard shares ownership.
  DatasetShard(std::shared_ptr<const MultiLabelDataset> corpus,
               std::vector<uint32_t> indices);

  /// Wraps an already-materialized per-peer dataset (e.g. hand-built test
  /// data): the shard owns the data as its own single-peer corpus.
  static DatasetShard Own(MultiLabelDataset data);

  std::size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  TagId num_tags() const;
  /// Grows the visible tag universe (mirrors
  /// MultiLabelDataset::set_num_tags; never shrinks below the corpus').
  void set_num_tags(TagId n);

  const MultiLabelExample& operator[](std::size_t i) const {
    return (*corpus_)[indices_[i]];
  }

  /// Same reduction as MultiLabelDataset::OneAgainstAll, over the shard.
  std::vector<Example> OneAgainstAll(TagId tag) const;

  /// Same per-tag counts as MultiLabelDataset::TagCounts, over the shard.
  std::vector<std::size_t> TagCounts() const;

  /// Copies the shard out into a standalone dataset — exact same examples
  /// in the exact same order.
  MultiLabelDataset Materialize() const;

  /// Wire size of the held documents (what shipping them would cost).
  std::size_t WireSize() const;

  /// Bytes this peer's flyweight state costs *beyond* the shared corpus:
  /// the index list. This is the per-peer footprint the 100k-peer memory
  /// budget is about.
  std::size_t FootprintBytes() const {
    return sizeof(DatasetShard) + indices_.capacity() * sizeof(uint32_t);
  }

  const std::shared_ptr<const MultiLabelDataset>& corpus() const {
    return corpus_;
  }
  const std::vector<uint32_t>& indices() const { return indices_; }

 private:
  std::shared_ptr<const MultiLabelDataset> corpus_;
  std::vector<uint32_t> indices_;
  /// Visible tag universe; >= corpus num_tags (0 = follow the corpus).
  TagId num_tags_override_ = 0;
};

/// Builds a compact feature space over a set of sparse vectors so trainers
/// can use small dense arrays even when the global (hashed) feature space is
/// huge. Maps observed feature ids to [0, num_features) and back.
class FeatureRemapper {
 public:
  FeatureRemapper() = default;

  /// Observes every feature id in `v`.
  void Observe(const SparseVector& v);

  std::size_t num_features() const { return compact_to_global_.size(); }

  /// Remaps a vector into the compact space; unseen features are dropped.
  SparseVector ToCompact(const SparseVector& v) const;

  /// Remaps a compact-space vector back into the global space.
  SparseVector ToGlobal(const SparseVector& v) const;

  /// Remaps a dense compact-space weight array back to a sparse global
  /// vector.
  SparseVector DenseToGlobal(const std::vector<double>& dense) const;

 private:
  std::unordered_map<uint32_t, uint32_t> global_to_compact_;
  std::vector<uint32_t> compact_to_global_;
};

}  // namespace p2pdt

#endif  // P2PDT_ML_DATASET_H_
