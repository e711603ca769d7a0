#include "common/profile.h"

#include <fstream>
#include <vector>

#include "common/metrics.h"

namespace p2pdt {

namespace {

std::atomic<PhaseProfiler*> g_profiler{nullptr};

/// Per-thread lexical scope stack. Lives in a function-local so threads
/// started before first use still get one lazily.
struct ThreadStack {
  std::vector<const char*> names;
  std::vector<uint64_t> child_micros;
};

ThreadStack& Stack() {
  thread_local ThreadStack stack;
  return stack;
}

/// Collapsed-format segment: ';' separates stack frames and ' ' ends the
/// path, so neither may appear inside a name.
std::string Sanitize(const char* name) {
  std::string out(name);
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n') c = '_';
  }
  return out;
}

}  // namespace

PhaseProfiler* PhaseProfiler::Current() {
  return g_profiler.load(std::memory_order_acquire);
}

PhaseProfiler* PhaseProfiler::Install(PhaseProfiler* profiler) {
  return g_profiler.exchange(profiler, std::memory_order_acq_rel);
}

void PhaseProfiler::SetPhase(std::string phase) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = std::move(phase);
}

void PhaseProfiler::Accumulate(const std::string& path,
                               uint64_t self_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string full = phase_.empty() ? path : phase_ + ";" + path;
  self_micros_[full] += self_micros;
}

std::string PhaseProfiler::ToCollapsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [path, micros] : self_micros_) {
    out += path;
    out += ' ';
    out += std::to_string(micros);
    out += '\n';
  }
  return out;
}

Status PhaseProfiler::WriteCollapsed(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ToCollapsed();
  out.close();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

uint64_t PhaseProfiler::total_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, micros] : self_micros_) total += micros;
  return total;
}

bool PhaseProfiler::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_micros_.empty();
}

PhaseScope::PhaseScope(const char* name, Histogram* seconds)
    : profiler_(PhaseProfiler::Current()), seconds_(seconds) {
  if (profiler_ == nullptr && seconds_ == nullptr) return;
  if (profiler_ != nullptr) {
    ThreadStack& stack = Stack();
    stack.names.push_back(name);
    stack.child_micros.push_back(0);
  }
  start_ = std::chrono::steady_clock::now();
}

PhaseScope::~PhaseScope() {
  if (profiler_ == nullptr && seconds_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  if (seconds_ != nullptr) {
    seconds_->Observe(std::chrono::duration<double>(end - start_).count());
  }
  if (profiler_ == nullptr) return;
  const uint64_t total = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count());
  ThreadStack& stack = Stack();
  std::string path;
  for (std::size_t i = 0; i < stack.names.size(); ++i) {
    if (i > 0) path += ';';
    path += Sanitize(stack.names[i]);
  }
  const uint64_t child = stack.child_micros.back();
  stack.names.pop_back();
  stack.child_micros.pop_back();
  if (!stack.child_micros.empty()) stack.child_micros.back() += total;
  profiler_->Accumulate(path, total > child ? total - child : 0);
}

}  // namespace p2pdt
