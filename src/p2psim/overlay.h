#ifndef P2PDT_P2PSIM_OVERLAY_H_
#define P2PDT_P2PSIM_OVERLAY_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "p2psim/network.h"

namespace p2pdt {

/// One Overlay::Broadcast in flight, reached by the hop callbacks through a
/// plain pointer. It is owned by its outstanding tasks: the root call and
/// every sent hop hold one `pending` count, and FinishBroadcastTask retires
/// one; the last schedules `on_complete` and frees the run.
struct BroadcastRun {
  std::size_t pending = 0;
  std::vector<bool> reached;  // peers that have seen the payload
  std::function<void(NodeId)> on_deliver;
  std::function<void()> on_complete;
  std::size_t bytes = 0;
  MessageType type = MessageType::kGossip;
};

inline void FinishBroadcastTask(BroadcastRun* run, Simulator& sim) {
  if (--run->pending > 0) return;
  if (run->on_complete) sim.Schedule(0.0, std::move(run->on_complete));
  delete run;
}

/// Common surface of the overlay networks P2PDMT can generate ("Generate
/// structured P2P network" / "Generate unstructured P2P network", Fig. 2).
///
/// Both structured (Chord) and unstructured (random-graph flooding)
/// overlays can disseminate a payload from one peer to all online peers;
/// only the structured overlay supports key lookups (used by CEMPaR to
/// locate super-peers deterministically).
class Overlay {
 public:
  virtual ~Overlay() = default;

  /// Registers a node with the overlay (node must exist in the underlay).
  virtual void AddNode(NodeId node) = 0;

  /// Notifies the overlay of an underlay online/offline transition, e.g.
  /// wired to ChurnDriver::AddListener.
  virtual void OnTransition(NodeId node, bool online) = 0;

  /// Disseminates `payload_bytes` from `origin` to every reachable online
  /// peer. `on_deliver(receiver)` runs once per peer that receives the
  /// payload (the origin is not called). `on_complete` (optional) runs when
  /// the dissemination has quiesced.
  virtual void Broadcast(NodeId origin, std::size_t payload_bytes,
                         MessageType type,
                         std::function<void(NodeId)> on_deliver,
                         std::function<void()> on_complete) = 0;

  virtual std::string name() const = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_OVERLAY_H_
