#include "ml/kernel_svm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/cost_ledger.h"
#include "common/profile.h"
#include "common/thread_pool.h"

namespace p2pdt {

namespace {

// Fixed fan-out granularity of the kernel loops. Chunk boundaries never
// change what is computed or the order it is summed in, only which thread
// evaluates a kernel value, so results do not depend on these.
constexpr std::size_t kGramRowChunk = 8;
constexpr std::size_t kDecisionSvChunk = 64;

}  // namespace

double KernelSvmModel::Decision(const SparseVector& x) const {
  PhaseScope profile("kernel_decision");
  // Kernel values fan out per SV chunk; the weighted sum stays serial in SV
  // order, so the result is bit-identical to a single-threaded loop.
  std::vector<double> k(svs_.size());
  ParallelFor(0, svs_.size(), kDecisionSvChunk, 0,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  k[i] = kernel_(svs_[i].x, x);
                }
              });
  double sum = bias_;
  for (std::size_t i = 0; i < svs_.size(); ++i) {
    sum += svs_[i].alpha * svs_[i].y * k[i];
  }
  return sum;
}

std::size_t KernelSvmModel::WireSize() const {
  // Each SV ships its vector plus label and alpha; one double for the bias
  // and a small kernel descriptor.
  std::size_t bytes = 8 + 16;
  for (const auto& sv : svs_) bytes += sv.x.WireSize() + 16;
  return bytes;
}

Result<KernelSvmModel> TrainKernelSvm(const std::vector<Example>& data,
                                      const KernelSvmOptions& options) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot train kernel SVM on empty data");
  }
  if (options.c <= 0.0) {
    return Status::InvalidArgument("kernel SVM requires C > 0");
  }
  const std::size_t n = data.size();

  std::vector<double> y(n);
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = data[i].y >= 0.0 ? 1.0 : -1.0;
    (y[i] > 0 ? has_pos : has_neg) = true;
  }
  // Degenerate single-class data: constant decision at the class sign.
  if (!has_pos || !has_neg) {
    return KernelSvmModel(options.kernel, {}, has_pos ? 1.0 : -1.0);
  }

  // Materialized kernel matrix Q_ij = y_i y_j K(x_i, x_j). Rows fan out
  // in fixed chunks; row i's task alone writes the pairs (i, j >= i) and
  // their mirrors, so every entry has exactly one writer.
  std::vector<double> q(n * n);
  {
    PhaseScope profile("kernel_matrix");
    ParallelFor(0, n, kGramRowChunk, 0, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = i; j < n; ++j) {
          double k = options.kernel(data[i].x, data[j].x);
          q[i * n + j] = y[i] * y[j] * k;
          q[j * n + i] = q[i * n + j];
        }
      }
    });
  }

  // SMO solving min ½αᵀQα − eᵀα, 0 ≤ α ≤ C, yᵀα = 0, with
  // maximal-violating-pair selection.
  PhaseScope profile("smo_solve");
  std::vector<double> alpha(n, 0.0);
  std::vector<double> grad(n, -1.0);  // G_i = (Qα)_i − 1
  const double c = options.c;
  const double tau = 1e-12;

  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Select i: max over I_up of −y_i G_i; j: min over I_down of −y_j G_j.
    int i_sel = -1, j_sel = -1;
    double g_max = -std::numeric_limits<double>::infinity();
    double g_min = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      bool in_up = (y[t] > 0 && alpha[t] < c) || (y[t] < 0 && alpha[t] > 0);
      bool in_down = (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < c);
      double v = -y[t] * grad[t];
      if (in_up && v > g_max) {
        g_max = v;
        i_sel = static_cast<int>(t);
      }
      if (in_down && v < g_min) {
        g_min = v;
        j_sel = static_cast<int>(t);
      }
    }
    if (i_sel < 0 || j_sel < 0 || g_max - g_min < options.tolerance) break;

    const std::size_t i = static_cast<std::size_t>(i_sel);
    const std::size_t j = static_cast<std::size_t>(j_sel);

    // Solve the two-variable subproblem analytically.
    double quad = q[i * n + i] + q[j * n + j] - 2.0 * y[i] * y[j] * q[i * n + j];
    if (quad <= 0.0) quad = tau;
    double delta = (-y[i] * grad[i] + y[j] * grad[j]) / quad;

    // Clip to the feasible box along the constraint line yᵀα = const.
    double ai_old = alpha[i], aj_old = alpha[j];
    double ai = ai_old + y[i] * delta;
    double aj = aj_old - y[j] * delta;
    // Project back into [0, C] on both coordinates, preserving the line.
    double sum = y[i] * ai_old + y[j] * aj_old;
    ai = std::clamp(ai, 0.0, c);
    aj = y[j] * (sum - y[i] * ai);
    aj = std::clamp(aj, 0.0, c);
    ai = y[i] * (sum - y[j] * aj);
    ai = std::clamp(ai, 0.0, c);

    double dai = ai - ai_old, daj = aj - aj_old;
    if (std::fabs(dai) < tau && std::fabs(daj) < tau) break;
    alpha[i] = ai;
    alpha[j] = aj;
    for (std::size_t t = 0; t < n; ++t) {
      grad[t] += q[t * n + i] * dai + q[t * n + j] * daj;
    }
  }
  if (CostLedger::enabled()) {
    CostLedger::Tls().smo_iterations += static_cast<uint64_t>(iter);
  }

  // Bias: average of y_i − Σ α_j y_j K(x_j, x_i) over free SVs; fall back to
  // the midpoint of the KKT bounds when no free SVs exist.
  double b_sum = 0.0;
  int b_count = 0;
  double ub = std::numeric_limits<double>::infinity();
  double lb = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    // grad_i = Σ_j Q_ij α_j − 1 = y_i (Σ_j α_j y_j K_ij) − 1
    // ⇒ Σ_j α_j y_j K_ij = y_i (grad_i + 1); b = y_i − that value.
    double decision_no_bias = y[i] * (grad[i] + 1.0);
    double bi = y[i] - decision_no_bias;
    if (alpha[i] > tau && alpha[i] < c - tau) {
      b_sum += bi;
      ++b_count;
    } else if ((alpha[i] <= tau && y[i] > 0) ||
               (alpha[i] >= c - tau && y[i] < 0)) {
      ub = std::min(ub, bi);
    } else {
      lb = std::max(lb, bi);
    }
  }
  double bias;
  if (b_count > 0) {
    bias = b_sum / b_count;
  } else if (std::isfinite(ub) && std::isfinite(lb)) {
    bias = (ub + lb) / 2.0;
  } else if (std::isfinite(ub)) {
    bias = ub;
  } else if (std::isfinite(lb)) {
    bias = lb;
  } else {
    bias = 0.0;
  }

  std::vector<SupportVector> svs;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > tau) svs.push_back({data[i].x, y[i], alpha[i]});
  }
  return KernelSvmModel(options.kernel, std::move(svs), bias);
}

namespace {

// Pools the support vectors of `models` into a training set, deduplicating
// identical (vector, label) pairs so repeated cascade levels do not inflate
// the problem.
std::vector<Example> PoolSupportVectors(
    const std::vector<const KernelSvmModel*>& models) {
  std::vector<Example> pool;
  for (const KernelSvmModel* m : models) {
    for (const auto& sv : m->support_vectors()) {
      bool duplicate = false;
      for (const auto& ex : pool) {
        if (ex.y == sv.y && ex.x == sv.x) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) pool.push_back({sv.x, sv.y});
    }
  }
  return pool;
}

}  // namespace

Result<KernelSvmModel> CascadeMerge(
    const std::vector<const KernelSvmModel*>& models,
    const KernelSvmOptions& options) {
  if (models.empty()) {
    return Status::InvalidArgument("cascade merge of zero models");
  }
  if (models.size() == 1) {
    return KernelSvmModel(*models[0]);
  }
  std::vector<Example> pool = PoolSupportVectors(models);
  if (pool.empty()) {
    // All inputs were degenerate constant models; majority of their biases.
    double s = 0.0;
    for (const KernelSvmModel* m : models) s += m->bias() >= 0 ? 1.0 : -1.0;
    return KernelSvmModel(options.kernel, {}, s >= 0 ? 1.0 : -1.0);
  }
  return TrainKernelSvm(pool, options);
}

Result<KernelSvmModel> CascadeTree(
    const std::vector<const KernelSvmModel*>& models,
    const KernelSvmOptions& options, std::size_t fan_in) {
  if (models.empty()) {
    return Status::InvalidArgument("cascade tree of zero models");
  }
  if (fan_in < 2) {
    return Status::InvalidArgument("cascade fan-in must be >= 2");
  }
  // Level-by-level merge; own the intermediate models.
  std::vector<KernelSvmModel> current;
  current.reserve(models.size());
  for (const KernelSvmModel* m : models) current.push_back(*m);

  while (current.size() > 1) {
    std::vector<KernelSvmModel> next;
    for (std::size_t i = 0; i < current.size(); i += fan_in) {
      std::vector<const KernelSvmModel*> group;
      for (std::size_t j = i; j < std::min(i + fan_in, current.size()); ++j) {
        group.push_back(&current[j]);
      }
      Result<KernelSvmModel> merged = CascadeMerge(group, options);
      if (!merged.ok()) return merged.status();
      next.push_back(std::move(merged).value());
    }
    current = std::move(next);
  }
  return std::move(current[0]);
}

}  // namespace p2pdt
