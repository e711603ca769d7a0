#include "ml/dataset.h"

#include <algorithm>
#include <cassert>

namespace p2pdt {

bool MultiLabelExample::HasTag(TagId tag) const {
  return std::binary_search(tags.begin(), tags.end(), tag);
}

void MultiLabelDataset::Add(MultiLabelExample example) {
  std::sort(example.tags.begin(), example.tags.end());
  example.tags.erase(std::unique(example.tags.begin(), example.tags.end()),
                     example.tags.end());
  for (TagId t : example.tags) {
    if (t >= num_tags_) num_tags_ = t + 1;
  }
  examples_.push_back(std::move(example));
}

std::vector<Example> MultiLabelDataset::OneAgainstAll(TagId tag) const {
  std::vector<Example> out;
  out.reserve(examples_.size());
  for (const auto& ex : examples_) {
    out.push_back({ex.x, ex.HasTag(tag) ? 1.0 : -1.0});
  }
  return out;
}

std::vector<std::size_t> MultiLabelDataset::TagCounts() const {
  std::vector<std::size_t> counts(num_tags_, 0);
  for (const auto& ex : examples_) {
    // Tags beyond the declared universe (a mis-sized or hostile dataset)
    // must not write out of bounds.
    for (TagId t : ex.tags) {
      if (t < counts.size()) ++counts[t];
    }
  }
  return counts;
}

std::pair<MultiLabelDataset, MultiLabelDataset> MultiLabelDataset::Split(
    double train_fraction, Rng& rng) const {
  assert(train_fraction >= 0.0 && train_fraction <= 1.0);
  std::vector<std::size_t> order(examples_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::size_t n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(examples_.size()) + 0.5);
  MultiLabelDataset train(num_tags_), test(num_tags_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& ex = examples_[order[i]];
    if (i < n_train) {
      train.Add(ex);
    } else {
      test.Add(ex);
    }
  }
  return {std::move(train), std::move(test)};
}

void MultiLabelDataset::Merge(const DatasetShard& other) {
  num_tags_ = std::max(num_tags_, other.num_tags());
  for (std::size_t i = 0; i < other.size(); ++i) {
    examples_.push_back(other[i]);
  }
}

std::size_t MultiLabelDataset::WireSize() const {
  std::size_t bytes = 0;
  for (const auto& ex : examples_) {
    bytes += ex.x.WireSize() + 4 + 4 * ex.tags.size();
  }
  return bytes;
}

DatasetShard::DatasetShard(std::shared_ptr<const MultiLabelDataset> corpus,
                           std::vector<uint32_t> indices)
    : corpus_(std::move(corpus)), indices_(std::move(indices)) {
  assert(corpus_ != nullptr);
#ifndef NDEBUG
  for (uint32_t i : indices_) assert(i < corpus_->size());
#endif
}

DatasetShard DatasetShard::Own(MultiLabelDataset data) {
  std::vector<uint32_t> all(data.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  return DatasetShard(
      std::make_shared<const MultiLabelDataset>(std::move(data)),
      std::move(all));
}

TagId DatasetShard::num_tags() const {
  TagId base = corpus_ == nullptr ? 0 : corpus_->num_tags();
  return std::max(base, num_tags_override_);
}

void DatasetShard::set_num_tags(TagId n) {
  num_tags_override_ = std::max(num_tags_override_, n);
}

std::vector<Example> DatasetShard::OneAgainstAll(TagId tag) const {
  std::vector<Example> out;
  out.reserve(indices_.size());
  for (uint32_t i : indices_) {
    const MultiLabelExample& ex = (*corpus_)[i];
    out.push_back({ex.x, ex.HasTag(tag) ? 1.0 : -1.0});
  }
  return out;
}

std::vector<std::size_t> DatasetShard::TagCounts() const {
  std::vector<std::size_t> counts(num_tags(), 0);
  for (uint32_t i : indices_) {
    for (TagId t : (*corpus_)[i].tags) {
      if (t < counts.size()) ++counts[t];
    }
  }
  return counts;
}

MultiLabelDataset DatasetShard::Materialize() const {
  MultiLabelDataset out(num_tags());
  for (uint32_t i : indices_) out.Add((*corpus_)[i]);
  return out;
}

std::size_t DatasetShard::WireSize() const {
  std::size_t bytes = 0;
  for (uint32_t i : indices_) {
    const MultiLabelExample& ex = (*corpus_)[i];
    bytes += ex.x.WireSize() + 4 + 4 * ex.tags.size();
  }
  return bytes;
}

void FeatureRemapper::Observe(const SparseVector& v) {
  for (const auto& [id, _] : v.entries()) {
    auto [it, inserted] = global_to_compact_.try_emplace(
        id, static_cast<uint32_t>(compact_to_global_.size()));
    if (inserted) compact_to_global_.push_back(id);
  }
}

SparseVector FeatureRemapper::ToCompact(const SparseVector& v) const {
  std::vector<SparseVector::Entry> entries;
  entries.reserve(v.nnz());
  for (const auto& [id, w] : v.entries()) {
    auto it = global_to_compact_.find(id);
    if (it != global_to_compact_.end()) entries.emplace_back(it->second, w);
  }
  return SparseVector::FromPairs(std::move(entries));
}

SparseVector FeatureRemapper::ToGlobal(const SparseVector& v) const {
  std::vector<SparseVector::Entry> entries;
  entries.reserve(v.nnz());
  for (const auto& [id, w] : v.entries()) {
    assert(id < compact_to_global_.size());
    entries.emplace_back(compact_to_global_[id], w);
  }
  return SparseVector::FromPairs(std::move(entries));
}

SparseVector FeatureRemapper::DenseToGlobal(
    const std::vector<double>& dense) const {
  std::vector<SparseVector::Entry> entries;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) {
      assert(i < compact_to_global_.size());
      entries.emplace_back(compact_to_global_[i], dense[i]);
    }
  }
  return SparseVector::FromPairs(std::move(entries));
}

}  // namespace p2pdt
