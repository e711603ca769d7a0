#ifndef P2PDT_P2PDMT_ROBUSTNESS_H_
#define P2PDT_P2PDMT_ROBUSTNESS_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "p2pdmt/experiment.h"
#include "p2psim/fault.h"

namespace p2pdt {

/// A fault plan with a human-readable label, so sweep output stays
/// interpretable ("burst", "partition", ...).
struct NamedFaultPlan {
  std::string label = "none";
  FaultPlanSpec plan;
};

/// Canonical fault plans the robustness experiments exercise, scaled to a
/// protocol run that trains within the first `horizon` simulated seconds:
///  - "none":       no injected faults (baseline loss only)
///  - "burst":      50 % loss for the middle third of the horizon
///  - "partition":  the first half of the peers is cut off from the second
///                  for the middle third
///  - "spike":      +2 s latency for the middle third (stress timers, not
///                  delivery)
///  - "crash":      the first `num_peers / 8` peers crash at horizon/4 and
///                  recover at 3·horizon/4
std::vector<NamedFaultPlan> CanonicalFaultPlans(std::size_t num_peers,
                                                double horizon);

/// The fault sweep's grid: {CEMPaR, PACE} × `loss_rates` × `plans` ×
/// {fire-and-forget, reliable transport}, each point a copy of `base`. Both
/// transport arms run so the delta the retries buy is in the same table.
std::vector<SweepPoint> RobustnessGrid(
    const ExperimentOptions& base, const std::vector<double>& loss_rates,
    const std::vector<NamedFaultPlan>& plans);

/// Flattens completed RobustnessGrid points into the CSV schema bench_fault
/// writes (bench_results/fault.csv).
CsvWriter RobustnessCsv(const std::vector<SweepRow>& rows);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_ROBUSTNESS_H_
