#include "p2pdmt/data_distribution.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace p2pdt {

const char* SizeDistributionToString(SizeDistribution d) {
  switch (d) {
    case SizeDistribution::kUniform:
      return "uniform";
    case SizeDistribution::kZipf:
      return "zipf";
  }
  return "unknown";
}

const char* ClassDistributionToString(ClassDistribution d) {
  switch (d) {
    case ClassDistribution::kIid:
      return "iid";
    case ClassDistribution::kNonIidDirichlet:
      return "non_iid_dirichlet";
    case ClassDistribution::kByUser:
      return "by_user";
  }
  return "unknown";
}

namespace {

/// Assigns every example index to exactly one peer; each peer's indices
/// are in the order the peer drew them.
Result<std::vector<std::vector<uint32_t>>> DistributeIndices(
    const MultiLabelDataset& data, std::size_t num_peers,
    const DataDistributionOptions& options,
    const std::vector<std::size_t>* doc_user) {
  if (num_peers == 0) {
    return Status::InvalidArgument("need at least one peer");
  }
  std::vector<std::vector<uint32_t>> peers(num_peers);
  const std::size_t n = data.size();
  if (n == 0) return peers;

  Rng rng(options.seed);

  if (options.cls == ClassDistribution::kByUser) {
    if (doc_user == nullptr || doc_user->size() != n) {
      return Status::InvalidArgument(
          "by-user distribution requires doc_user parallel to the dataset");
    }
    for (std::size_t i = 0; i < n; ++i) {
      peers[(*doc_user)[i] % num_peers].push_back(static_cast<uint32_t>(i));
    }
    return peers;
  }

  // Per-peer quotas.
  std::vector<double> quota_weight(num_peers, 1.0);
  if (options.size == SizeDistribution::kZipf) {
    ZipfSampler zipf(num_peers, options.size_zipf_exponent);
    for (std::size_t p = 0; p < num_peers; ++p) {
      quota_weight[p] = zipf.Pmf(p);
    }
    rng.Shuffle(quota_weight);  // decouple peer id from rank
  }
  double weight_total =
      std::accumulate(quota_weight.begin(), quota_weight.end(), 0.0);
  std::vector<std::size_t> quota(num_peers, 0);
  std::size_t assigned = 0;
  for (std::size_t p = 0; p < num_peers; ++p) {
    quota[p] = static_cast<std::size_t>(quota_weight[p] / weight_total *
                                        static_cast<double>(n));
    assigned += quota[p];
  }
  // Distribute rounding remainder one by one, weighted.
  while (assigned < n) {
    std::size_t p = rng.Categorical(quota_weight);
    if (p >= num_peers) p = rng.NextU64(num_peers);
    ++quota[p];
    ++assigned;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  if (options.cls == ClassDistribution::kIid) {
    std::size_t cursor = 0;
    for (std::size_t p = 0; p < num_peers; ++p) {
      for (std::size_t j = 0; j < quota[p] && cursor < n; ++j) {
        peers[p].push_back(static_cast<uint32_t>(order[cursor++]));
      }
    }
    return peers;
  }

  // Non-IID: each peer draws documents whose first tag matches a sample
  // from its Dirichlet tag preference; falls back to any remaining
  // document when the preferred pools run dry. Documents without a pool
  // (no tag in the universe) go straight to the leftovers.
  const TagId num_tags = data.num_tags();
  std::vector<std::vector<std::size_t>> tag_pool(num_tags);
  std::vector<std::size_t> leftovers;
  for (std::size_t idx : order) {
    const auto& ex = data[idx];
    TagId primary = ex.tags.empty() ? 0 : ex.tags.front();
    if (primary < num_tags) {
      tag_pool[primary].push_back(idx);
    } else {
      leftovers.push_back(idx);
    }
  }

  for (std::size_t p = 0; p < num_peers; ++p) {
    std::vector<double> pref =
        rng.Dirichlet(std::max<std::size_t>(num_tags, 1),
                      options.dirichlet_alpha);
    for (std::size_t j = 0; j < quota[p]; ++j) {
      std::size_t t = rng.Categorical(pref);
      bool placed = false;
      // Probe the sampled tag, then the rest, for a non-empty pool.
      for (TagId probe = 0; probe < num_tags; ++probe) {
        TagId tag = static_cast<TagId>((t + probe) % num_tags);
        if (!tag_pool[tag].empty()) {
          peers[p].push_back(static_cast<uint32_t>(tag_pool[tag].back()));
          tag_pool[tag].pop_back();
          placed = true;
          break;
        }
      }
      if (!placed) break;  // everything assigned
    }
  }
  // Any stragglers (possible when quotas overshoot pool drain order) go to
  // random peers.
  for (const auto& pool : tag_pool) {
    for (std::size_t idx : pool) leftovers.push_back(idx);
  }
  for (std::size_t idx : leftovers) {
    peers[rng.NextU64(num_peers)].push_back(static_cast<uint32_t>(idx));
  }
  return peers;
}

}  // namespace

Result<std::vector<DatasetShard>> DistributeDataShared(
    std::shared_ptr<const MultiLabelDataset> data, std::size_t num_peers,
    const DataDistributionOptions& options,
    const std::vector<std::size_t>* doc_user) {
  if (data == nullptr) {
    return Status::InvalidArgument("DistributeDataShared needs a corpus");
  }
  Result<std::vector<std::vector<uint32_t>>> indices =
      DistributeIndices(*data, num_peers, options, doc_user);
  if (!indices.ok()) return indices.status();
  std::vector<DatasetShard> shards;
  shards.reserve(num_peers);
  for (std::vector<uint32_t>& idx : indices.value()) {
    idx.shrink_to_fit();  // the footprint bound counts capacity
    shards.emplace_back(data, std::move(idx));
  }
  return shards;
}

DistributionSummary SummarizeDistribution(
    const std::vector<DatasetShard>& peers, TagId num_tags) {
  DistributionSummary s;
  s.num_peers = peers.size();
  if (peers.empty()) return s;

  std::vector<std::size_t> sizes;
  sizes.reserve(peers.size());
  double coverage_sum = 0.0;
  for (const auto& peer : peers) {
    sizes.push_back(peer.size());
    s.num_examples += peer.size();
    if (num_tags > 0) {
      std::vector<std::size_t> counts = peer.TagCounts();
      std::size_t present = 0;
      for (TagId t = 0; t < num_tags && t < counts.size(); ++t) {
        if (counts[t] > 0) ++present;
      }
      coverage_sum +=
          static_cast<double>(present) / static_cast<double>(num_tags);
    }
  }
  s.min_peer_size = *std::min_element(sizes.begin(), sizes.end());
  s.max_peer_size = *std::max_element(sizes.begin(), sizes.end());
  s.mean_peer_size =
      static_cast<double>(s.num_examples) / static_cast<double>(peers.size());
  s.mean_tag_coverage = coverage_sum / static_cast<double>(peers.size());

  // Gini via the sorted-rank formula.
  std::sort(sizes.begin(), sizes.end());
  double weighted = 0.0, total = 0.0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    weighted += static_cast<double>(2 * (i + 1)) *
                static_cast<double>(sizes[i]);
    total += static_cast<double>(sizes[i]);
  }
  if (total > 0.0) {
    double nn = static_cast<double>(sizes.size());
    s.size_gini = weighted / (nn * total) - (nn + 1.0) / nn;
  }
  return s;
}

std::string DistributionSummary::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "peers=%zu docs=%zu size[min=%zu mean=%.1f max=%zu "
                "gini=%.3f] tag_coverage=%.3f",
                num_peers, num_examples, min_peer_size, mean_peer_size,
                max_peer_size, size_gini, mean_tag_coverage);
  return buf;
}

}  // namespace p2pdt
