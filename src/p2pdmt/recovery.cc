#include "p2pdmt/recovery.h"

#include <utility>

#include "common/metrics.h"
#include "common/profile.h"

namespace p2pdt {

RecoveryCoordinator::RecoveryCoordinator(Simulator& sim, PhysicalNetwork& net,
                                         ChurnDriver& churn,
                                         P2PClassifier& classifier,
                                         CheckpointManager& checkpoints,
                                         RecoveryOptions options)
    : sim_(sim),
      net_(net),
      churn_(churn),
      classifier_(classifier),
      checkpoints_(checkpoints),
      options_(std::move(options)) {}

std::string RecoveryCoordinator::KeyFor(NodeId peer) {
  return "peer-" + std::to_string(peer);
}

void RecoveryCoordinator::Attach() {
  if (attached_) return;
  attached_ = true;
  churn_.AddListener(
      [this](NodeId node, bool online) { OnTransition(node, online); });
}

Status RecoveryCoordinator::CheckpointPeer(NodeId peer) {
  PhaseScope profile(
      "checkpoint_write",
      PhaseSeconds(net_.metrics(), "recovery", "checkpoint_write"));
  Result<std::string> blob = classifier_.Snapshot(peer);
  if (!blob.ok()) return blob.status();
  P2PDT_RETURN_IF_ERROR(checkpoints_.Write(KeyFor(peer), *blob));
  ++stats_.snapshots_written;
  stats_.snapshot_bytes += blob->size();
  return Status::OK();
}

Status RecoveryCoordinator::CheckpointAll() {
  if (!classifier_.SupportsDurability()) {
    return Status::Unavailable(classifier_.name() +
                               " does not support durability");
  }
  // Every peer is checkpointed, online or not: a peer that is offline right
  // now still holds its trained state (nothing evicts until Attach), and
  // skipping it would silently condemn its next rejoin to a cold start.
  for (NodeId peer = 0; peer < net_.num_nodes(); ++peer) {
    P2PDT_RETURN_IF_ERROR(CheckpointPeer(peer));
  }
  return Status::OK();
}

void RecoveryCoordinator::OnTransition(NodeId node, bool online) {
  if (!options_.enabled || !classifier_.SupportsDurability()) return;
  if (!online) {
    // A crash destroys the peer's RAM; the checkpoint on disk survives.
    classifier_.EvictPeer(node);
    return;
  }
  HandleRejoin(node);
}

void RecoveryCoordinator::HandleRejoin(NodeId node) {
  double latency = 0.0;
  bool warm = false;
  if (options_.warm_rejoin) {
    PhaseScope profile(
        "checkpoint_restore",
        PhaseSeconds(net_.metrics(), "recovery", "checkpoint_restore"));
    Result<std::string> blob = checkpoints_.Read(KeyFor(node));
    if (blob.ok()) {
      Status restored = classifier_.Restore(node, *blob);
      if (restored.ok()) {
        warm = true;
        latency = options_.warm_restore_latency_sec;
      } else {
        // A blob that passed the CRC but fails structural validation still
        // degrades to a cold start, never a crash or a silently wrong model.
        ++stats_.corrupt_checkpoints;
      }
    } else if (blob.status().code() == StatusCode::kDataLoss) {
      ++stats_.corrupt_checkpoints;
    }
    // kNotFound (peer never checkpointed) falls through to cold silently.
  }

  if (!warm) {
    std::size_t refit = classifier_.ColdRestart(node);
    stats_.retrain_examples += refit;
    latency = static_cast<double>(refit) *
              options_.cold_retrain_latency_per_example_sec;
    if (options_.warm_rejoin && options_.recheckpoint_after_cold_restart) {
      // Best effort: a failed re-checkpoint only costs the *next* rejoin
      // its warmth.
      (void)CheckpointPeer(node);
    }
  }

  if (warm) {
    ++stats_.warm_rejoins;
  } else {
    ++stats_.cold_rejoins;
  }
  churn_.NoteRejoin(warm);
  stats_.total_rejoin_latency_sec += latency;
  if (latency > stats_.max_rejoin_latency_sec) {
    stats_.max_rejoin_latency_sec = latency;
  }

  if (options_.resync_after_rejoin) {
    // Run the anti-entropy round after the simulated recovery latency has
    // elapsed — the peer is not reachable while it reloads or retrains.
    ++stats_.resync_rounds;
    sim_.Schedule(latency, [this, node] {
      if (!net_.IsOnline(node)) return;  // failed again while recovering
      const SimTime resync_started = sim_.Now();
      classifier_.ResyncPeer(node, [this, resync_started] {
        // Sim-time the anti-entropy round took to quiesce.
        if (Histogram* hist =
                PhaseSeconds(net_.metrics(), "recovery", "resync")) {
          hist->Observe(sim_.Now() - resync_started);
        }
      });
    });
  }
}

}  // namespace p2pdt
