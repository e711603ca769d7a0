#ifndef P2PDT_COMMON_PROFILE_H_
#define P2PDT_COMMON_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

namespace p2pdt {

class Histogram;

/// Hierarchical wall-clock phase profiler with a collapsed-stack
/// (flamegraph / pprof -raw style) export.
///
/// The sim-time Tracer answers "what caused what" across messages; this
/// profiler answers "where did the CPU go" *inside* a phase — the
/// `local_train → smo_solve → kernel_matrix` attribution the kernel
/// optimization work is graded on. Scopes nest lexically per thread:
/// each thread keeps its own stack, and a pool worker's stack is rooted
/// at the ambient phase the driver declared before fanning out, so
/// worker time still lands under `train;local_train;...`.
///
/// Determinism contract: the profiler reads clocks and nothing else — no
/// RNG draws, no event scheduling, no branching visible to protocol code
/// — so runs with profiling on and off execute identical event
/// sequences. Durations are wall-clock and therefore *advisory*; the
/// deterministic story lives in CostLedger.
///
/// Cost: one relaxed atomic load per scope when no profiler is
/// installed; two steady_clock reads plus one short mutex hold (at
/// close) when one is.
class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Process-wide active profiler (null = profiling off). Install returns
  /// the previous one so scopes/environments can restore it.
  static PhaseProfiler* Current();
  static PhaseProfiler* Install(PhaseProfiler* profiler);

  /// Ambient root segment prepended to every stack ("train", "predict").
  /// Call only at a pool quiesce point — phase boundaries — so in-flight
  /// scopes never straddle a change.
  void SetPhase(std::string phase);

  /// Collapsed-stack text: one `seg;seg;seg <micros>` line per distinct
  /// stack, sorted, self-time attribution (a parent line carries only the
  /// time not accounted to its children). Loadable by flamegraph.pl /
  /// speedscope / `pprof -raw`-style tooling.
  std::string ToCollapsed() const;
  Status WriteCollapsed(const std::string& path) const;

  /// Total self-microseconds recorded (0 until a scope closes).
  uint64_t total_micros() const;
  bool empty() const;

 private:
  friend class PhaseScope;
  void Accumulate(const std::string& path, uint64_t self_micros);
  std::string PhasePrefix() const;

  mutable std::mutex mu_;
  std::string phase_;
  std::map<std::string, uint64_t> self_micros_;
};

/// RAII profiling scope and the one wall-clock phase timer. Near-free when
/// no profiler is installed and no histogram is given; safe on any thread.
/// Names must be string literals (stored by pointer while the scope is
/// open). A non-null `seconds` histogram (see PhaseSeconds) also observes
/// the scope's wall-clock duration when it closes, profiler or not.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name, Histogram* seconds = nullptr);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfiler* profiler_;
  Histogram* seconds_;
  std::chrono::steady_clock::time_point start_;
};

/// Installs `profiler` for the lifetime of the scope (null = disable),
/// restoring the previous one on exit.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(PhaseProfiler* profiler)
      : prev_(PhaseProfiler::Install(profiler)) {}
  ~ScopedProfiler() { PhaseProfiler::Install(prev_); }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  PhaseProfiler* prev_;
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_PROFILE_H_
