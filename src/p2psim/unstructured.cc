#include "p2psim/unstructured.h"

#include <algorithm>

namespace p2pdt {

UnstructuredOverlay::UnstructuredOverlay(Simulator& sim, PhysicalNetwork& net,
                                         UnstructuredOptions options)
    : sim_(sim), net_(net), options_(options), rng_(options.seed) {}

void UnstructuredOverlay::Connect(NodeId a, NodeId b) {
  if (a == b) return;
  auto& na = adjacency_[a];
  if (std::find(na.begin(), na.end(), b) != na.end()) return;
  na.push_back(b);
  adjacency_[b].push_back(a);
}

void UnstructuredOverlay::AddNode(NodeId node) {
  if (node >= adjacency_.size()) {
    adjacency_.resize(node + 1);
    member_.resize(node + 1, false);
  }
  if (member_[node]) return;
  member_[node] = true;

  // Attach to `degree` random existing members (bootstrap-server model);
  // early nodes get linked by later arrivals, giving a connected
  // Gnutella-like random graph.
  std::vector<NodeId> candidates;
  for (NodeId n = 0; n < member_.size(); ++n) {
    if (n != node && member_[n]) candidates.push_back(n);
  }
  rng_.Shuffle(candidates);
  std::size_t links = std::min(options_.degree, candidates.size());
  for (std::size_t i = 0; i < links; ++i) Connect(node, candidates[i]);
}

void UnstructuredOverlay::OnTransition(NodeId node, bool online) {
  if (!online) return;
  // A rejoining peer re-bootstraps if it lost all neighbors to departures;
  // the graph itself is kept (peers remember their neighbor lists).
  if (node < adjacency_.size() && member_[node] &&
      adjacency_[node].empty()) {
    member_[node] = false;
    AddNode(node);
  }
}

double UnstructuredOverlay::MeanDegree() const {
  std::size_t total = 0, count = 0;
  for (NodeId n = 0; n < adjacency_.size(); ++n) {
    if (member_[n]) {
      total += adjacency_[n].size();
      ++count;
    }
  }
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

void UnstructuredOverlay::Broadcast(NodeId origin, std::size_t payload_bytes,
                                    MessageType type,
                                    std::function<void(NodeId)> on_deliver,
                                    std::function<void()> on_complete) {
  auto* run = new BroadcastRun();
  run->reached.resize(adjacency_.size(), false);
  run->on_deliver = std::move(on_deliver);
  run->on_complete = std::move(on_complete);
  run->bytes = payload_bytes + options_.header_bytes;
  run->type = type;

  ++run->pending;  // root task
  if (origin < adjacency_.size() && member_[origin] &&
      net_.IsOnline(origin)) {
    run->reached[origin] = true;
    Relay(run, origin, options_.flood_ttl);
  }
  FinishBroadcastTask(run, sim_);
}

void UnstructuredOverlay::Relay(BroadcastRun* run, NodeId at, int ttl) {
  if (ttl <= 0) return;
  // Flooding forwards to every neighbor; gossip samples a fanout-sized
  // random subset per hop.
  const std::vector<NodeId>* targets = &adjacency_[at];
  std::vector<NodeId> sample;
  if (options_.mode == DisseminationMode::kGossip &&
      targets->size() > options_.gossip_fanout) {
    sample = *targets;
    rng_.Shuffle(sample);
    sample.resize(options_.gossip_fanout);
    targets = &sample;
  }
  for (NodeId nb : *targets) {
    // Senders do not know receiver liveness; they do suppress neighbors
    // they already heard the message from (via `reached` bookkeeping at the
    // receiving end only — the sender-side check models the standard
    // "don't echo back" rule imperfectly but cheaply).
    ++run->pending;
    net_.Send(
        at, nb, run->bytes, run->type,
        [this, run, nb, ttl] {
          if (!run->reached[nb]) {
            run->reached[nb] = true;
            if (run->on_deliver) run->on_deliver(nb);
            Relay(run, nb, ttl - 1);
          }
          FinishBroadcastTask(run, sim_);
        },
        [this, run] { FinishBroadcastTask(run, sim_); });
  }
}

}  // namespace p2pdt
