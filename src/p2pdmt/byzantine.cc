#include "p2pdmt/byzantine.h"

#include <algorithm>

#include "common/rng.h"

namespace p2pdt {

FaultPlanSpec MakeAdversaryPlan(std::size_t num_peers,
                                AdversaryBehavior behavior, double fraction,
                                uint64_t seed) {
  FaultPlanSpec plan;
  if (num_peers == 0 || fraction <= 0.0 ||
      behavior == AdversaryBehavior::kHonest) {
    return plan;
  }
  fraction = std::min(fraction, 1.0);
  std::size_t count = static_cast<std::size_t>(fraction *
                                               static_cast<double>(num_peers));
  if (count == 0) count = 1;  // a positive fraction poisons at least one peer
  Rng rng(DeriveSeed(seed, static_cast<uint64_t>(behavior)));
  std::vector<std::size_t> picks = rng.SampleWithoutReplacement(num_peers,
                                                                count);
  std::sort(picks.begin(), picks.end());
  for (std::size_t p : picks) {
    FaultPlanSpec::Adversary adv;
    adv.node = static_cast<NodeId>(p);
    adv.behavior = behavior;
    plan.adversaries.push_back(adv);
  }
  return plan;
}

namespace {

/// Malicious fraction for every behavior other than label-flip.
constexpr double kOtherFraction = 0.3;

SweepPoint AdversaryPoint(const ExperimentOptions& base, AlgorithmType algo,
                          bool defended, AdversaryBehavior behavior,
                          double fraction) {
  SweepPoint point{base};
  point.adversary = behavior == AdversaryBehavior::kHonest
                        ? "none"
                        : AdversaryBehaviorToString(behavior);
  point.malicious_fraction = fraction;
  ExperimentOptions& opt = point.options;
  opt.algorithm = algo;
  opt.env.fault =
      MakeAdversaryPlan(opt.env.num_peers, behavior, fraction, opt.seed);
  opt.cempar.sanitize.enabled = defended;
  opt.pace.sanitize.enabled = defended;
  opt.cempar.reputation.enabled = defended;
  opt.pace.reputation.enabled = defended;
  return point;
}

}  // namespace

std::vector<SweepPoint> ByzantineGrid(
    const ExperimentOptions& base, const std::vector<double>& flip_fractions,
    const std::vector<AdversaryBehavior>& other_behaviors) {
  std::vector<SweepPoint> points;
  for (AlgorithmType algo : kSweepAlgorithms) {
    for (bool defended : {true, false}) {
      // Clean baseline for this arm: the reference every degradation in the
      // acceptance criterion is measured against.
      points.push_back(AdversaryPoint(base, algo, defended,
                                      AdversaryBehavior::kHonest, 0.0));
      for (double fraction : flip_fractions) {
        points.push_back(AdversaryPoint(base, algo, defended,
                                        AdversaryBehavior::kLabelFlip,
                                        fraction));
      }
      for (AdversaryBehavior behavior : other_behaviors) {
        points.push_back(
            AdversaryPoint(base, algo, defended, behavior, kOtherFraction));
      }
    }
  }
  return points;
}

CsvWriter ByzantineCsv(const std::vector<SweepRow>& rows) {
  CsvWriter csv({"algorithm", "adversary", "malicious_fraction",
                 "malicious_peers", "defended", "micro_f1", "macro_f1",
                 "prediction_success_rate", "attempted", "models_rejected",
                 "votes_discarded", "quarantined_pairs", "trust_observations",
                 "train_bytes", "train_sim_seconds"});
  for (const auto& [point, r] : rows) {
    csv.AddRow({r.algorithm, point.adversary,
                CsvNumber(point.malicious_fraction),
                std::to_string(point.options.env.fault.adversaries.size()),
                point.options.cempar.sanitize.enabled ? "1" : "0",
                CsvNumber(r.metrics.micro_f1), CsvNumber(r.metrics.macro_f1),
                CsvNumber(r.prediction_success_rate()),
                std::to_string(r.test_documents),
                std::to_string(r.models_rejected),
                std::to_string(r.votes_discarded),
                std::to_string(r.quarantined_pairs),
                std::to_string(r.trust_observations),
                std::to_string(r.train_bytes),
                CsvNumber(r.train_sim_seconds)});
  }
  return csv;
}

}  // namespace p2pdt
