#ifndef P2PDT_P2PDMT_BYZANTINE_H_
#define P2PDT_P2PDMT_BYZANTINE_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "p2pdmt/experiment.h"
#include "p2psim/fault.h"

namespace p2pdt {

/// Builds a fault plan that turns `fraction` of the peers malicious with
/// the given behavior for the whole run. Victims are a deterministic sample
/// keyed by (seed, behavior), so the same scenario seed always poisons the
/// same peers — and two behaviors at the same fraction poison *different*
/// subsets, which keeps sweep points independent.
FaultPlanSpec MakeAdversaryPlan(std::size_t num_peers,
                                AdversaryBehavior behavior, double fraction,
                                uint64_t seed);

/// The poisoning sweep's grid: {CEMPaR, PACE} × {defended, undefended} ×
/// {clean, label-flip at each of `flip_fractions`, each of
/// `other_behaviors` at 30 % malicious}, each point a copy of `base` whose
/// fault plan is replaced by the adversary plan. The defended arm enables
/// the sanitation + reputation stack, so the degradation delta it buys is
/// in the same table.
std::vector<SweepPoint> ByzantineGrid(
    const ExperimentOptions& base, const std::vector<double>& flip_fractions,
    const std::vector<AdversaryBehavior>& other_behaviors);

/// Flattens completed ByzantineGrid points into the CSV schema
/// bench_byzantine writes (bench_results/byzantine.csv).
CsvWriter ByzantineCsv(const std::vector<SweepRow>& rows);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_BYZANTINE_H_
