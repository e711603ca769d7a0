#include "p2psim/network.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/cost_ledger.h"
#include "p2psim/trace.h"

namespace p2pdt {

const char* AdversaryBehaviorToString(AdversaryBehavior behavior) {
  switch (behavior) {
    case AdversaryBehavior::kHonest:
      return "honest";
    case AdversaryBehavior::kLabelFlip:
      return "label_flip";
    case AdversaryBehavior::kGarbageModel:
      return "garbage_model";
    case AdversaryBehavior::kDimensionMismatch:
      return "dimension_mismatch";
    case AdversaryBehavior::kAccuracyInflate:
      return "accuracy_inflate";
    case AdversaryBehavior::kVoteSpam:
      return "vote_spam";
  }
  return "unknown";
}

PhysicalNetwork::PhysicalNetwork(Simulator& sim,
                                 PhysicalNetworkOptions options)
    : sim_(sim), options_(options), rng_(options.seed) {}

NodeId PhysicalNetwork::AddNode() {
  coords_.emplace_back(rng_.NextDouble(), rng_.NextDouble());
  online_.push_back(true);
  ++num_online_;
  return coords_.size() - 1;
}

void PhysicalNetwork::AddNodes(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) AddNode();
}

void PhysicalNetwork::SetOnline(NodeId node, bool online) {
  assert(node < online_.size());
  if (online_[node] == online) return;
  online_[node] = online;
  num_online_ += online ? 1 : -1;
}

double PhysicalNetwork::Latency(NodeId from, NodeId to) const {
  assert(from < coords_.size() && to < coords_.size());
  if (from == to) return 0.0;
  double dx = coords_[from].first - coords_[to].first;
  double dy = coords_[from].second - coords_[to].second;
  // Unit-square diagonal is sqrt(2); scale distance into [min, max].
  double frac = std::sqrt(dx * dx + dy * dy) / std::sqrt(2.0);
  return options_.min_latency +
         frac * (options_.max_latency - options_.min_latency);
}

/// A message's state between Send and its settlement, carried by value in
/// the scheduled closure. The receiver is narrowed to 32 bits so that the
/// closure — network, envelope and callback record — fits UniqueFunction's
/// inline buffer.
struct PhysicalNetwork::Envelope {
  TraceContext span;
  uint32_t to = 0;
  MessageType type = MessageType::kLookup;
  bool lost_random = false;
  bool lost_injected = false;
};

/// A message's callbacks: allocated only when the sender passed one, so a
/// callback-less probe costs no allocation and any other send costs one.
struct PhysicalNetwork::Callbacks {
  UniqueFunction on_deliver;
  UniqueFunction on_drop;
};

void PhysicalNetwork::Send(NodeId from, NodeId to, std::size_t bytes,
                           MessageType type, UniqueFunction on_deliver,
                           UniqueFunction on_drop) {
  assert(from < online_.size() && to < online_.size());
  stats_.RecordSend(type, bytes);
  if (CostLedger::enabled()) {
    auto idx = static_cast<std::size_t>(type);
    if (idx < CostCounts::kNumWireTypes) {
      CostCounts& c = CostLedger::Tls();
      ++c.wire_messages_by_type[idx];
      c.wire_bytes_by_type[idx] += bytes;
    }
  }

  // Message span: child of whatever span is being executed right now, so
  // causality flows through the event queue without an explicit message
  // object. Tracing draws no randomness and schedules nothing — the event
  // sequence is bit-identical with or without it.
  TraceContext span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(MessageTypeToString(type), sim_.Now(), from,
                              tracer_->current(), "message");
    tracer_->AddArg(span, "to", std::to_string(to));
  }

  if (!online_[from]) {
    stats_.RecordDrop(type, DropReason::kSendOffline);
    if (tracer_ != nullptr) {
      tracer_->AddArg(span, "drop",
                      DropReasonToString(DropReason::kSendOffline));
      tracer_->EndSpan(span, sim_.Now());
    }
    if (on_drop) {
      sim_.Schedule(0.0, [this, span, drop = std::move(on_drop)]() mutable {
        ScopedTraceContext scope(tracer_, span);
        drop();
      });
    }
    return;
  }

  double delay = Latency(from, to) +
                 static_cast<double>(bytes) / options_.bandwidth_bytes_per_sec;
  assert(to <= UINT32_MAX);
  Envelope env;
  env.span = span;
  env.to = static_cast<uint32_t>(to);
  env.type = type;
  // The baseline loss draw always happens, even when a fault rule already
  // condemned the message — identical RNG streams with and without a plan.
  env.lost_random = rng_.Bernoulli(options_.loss_rate);
  if (fault_hook_) {
    FaultDecision fd = fault_hook_(from, to, type, sim_.Now());
    env.lost_injected = fd.drop;
    delay += fd.extra_latency;
  }
  std::unique_ptr<Callbacks> cb;
  if (on_deliver || on_drop) {
    cb = std::make_unique<Callbacks>();
    cb->on_deliver = std::move(on_deliver);
    cb->on_drop = std::move(on_drop);
  }
  auto arrive = [this, env, cb = std::move(cb)] { Arrive(env, cb.get()); };
  static_assert(UniqueFunction::kStoredInline<decltype(arrive)>,
                "a message's scheduled closure must not allocate");
  sim_.Schedule(delay, std::move(arrive));
}

void PhysicalNetwork::Arrive(const Envelope& env, Callbacks* cb) {
  if (env.lost_injected || env.lost_random || !online_[env.to]) {
    DropReason reason = env.lost_injected ? DropReason::kInjectedFault
                        : env.lost_random ? DropReason::kRandomLoss
                                          : DropReason::kRecvOffline;
    stats_.RecordDrop(env.type, reason);
    if (tracer_ != nullptr) {
      tracer_->AddArg(env.span, "drop", DropReasonToString(reason));
      tracer_->EndSpan(env.span, sim_.Now());
    }
    if (cb != nullptr && cb->on_drop) {
      ScopedTraceContext scope(tracer_, env.span);
      cb->on_drop();
    }
    return;
  }
  stats_.RecordDelivery(env.type);
  if (tracer_ != nullptr) tracer_->EndSpan(env.span, sim_.Now());
  if (cb != nullptr && cb->on_deliver) {
    // The receiver reacts on behalf of this message: responses, ACKs and
    // forwarded hops all become children of the message span.
    ScopedTraceContext scope(tracer_, env.span);
    cb->on_deliver();
  }
}

}  // namespace p2pdt
