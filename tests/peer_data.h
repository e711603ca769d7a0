#ifndef P2PDT_TESTS_PEER_DATA_H_
#define P2PDT_TESTS_PEER_DATA_H_

// Hand-built per-peer training data shared by the protocol tests.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace p2pdt {

/// `per_peer` documents per peer over 4 tags: document i of peer p carries
/// tag (p + i) % 4, one strong feature in the tag's 3-wide block and one
/// weak noise feature in [12, 16).
inline std::vector<MultiLabelDataset> MakePeerData(std::size_t num_peers,
                                                   std::size_t per_peer,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<MultiLabelDataset> peers(num_peers, MultiLabelDataset(4));
  for (std::size_t p = 0; p < num_peers; ++p) {
    for (std::size_t i = 0; i < per_peer; ++i) {
      TagId tag = static_cast<TagId>((p + i) % 4);
      MultiLabelExample ex;
      ex.x = SparseVector::FromPairs(
          {{tag * 3 + static_cast<uint32_t>(rng.NextU64(3)), 1.0},
           {12 + static_cast<uint32_t>(rng.NextU64(4)),
            0.3 * rng.NextDouble()}});
      ex.tags = {tag};
      peers[p].Add(std::move(ex));
    }
  }
  return peers;
}

/// A noise-free probe for `tag` in MakePeerData's feature layout.
inline SparseVector TagVector(TagId tag) {
  return SparseVector::FromPairs({{tag * 3u, 1.0}, {tag * 3u + 1, 1.0}});
}

/// Wraps hand-built per-peer datasets, unchanged, as self-owned shards for
/// P2PClassifier::SetupShards.
inline std::vector<DatasetShard> OwnShards(
    std::vector<MultiLabelDataset> peers) {
  std::vector<DatasetShard> shards;
  shards.reserve(peers.size());
  for (MultiLabelDataset& data : peers) {
    shards.push_back(DatasetShard::Own(std::move(data)));
  }
  return shards;
}

}  // namespace p2pdt

#endif  // P2PDT_TESTS_PEER_DATA_H_
