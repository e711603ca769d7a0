#include "p2pdmt/robustness.h"

namespace p2pdt {

std::vector<NamedFaultPlan> CanonicalFaultPlans(std::size_t num_peers,
                                                double horizon) {
  std::vector<NamedFaultPlan> plans;
  plans.push_back({"none", {}});

  const double third = horizon / 3.0;
  {
    NamedFaultPlan p{"burst", {}};
    p.plan.burst_loss.push_back({third, 2.0 * third, 0.5});
    plans.push_back(std::move(p));
  }
  {
    NamedFaultPlan p{"partition", {}};
    FaultPlanSpec::Partition part;
    part.start = third;
    part.end = 2.0 * third;
    for (NodeId n = 0; n < num_peers; ++n) {
      (n < num_peers / 2 ? part.group_a : part.group_b).push_back(n);
    }
    p.plan.partitions.push_back(std::move(part));
    plans.push_back(std::move(p));
  }
  {
    NamedFaultPlan p{"spike", {}};
    p.plan.latency_spikes.push_back({third, 2.0 * third, 2.0});
    plans.push_back(std::move(p));
  }
  {
    NamedFaultPlan p{"crash", {}};
    std::size_t victims = num_peers < 8 ? 1 : num_peers / 8;
    for (NodeId n = 0; n < victims; ++n) {
      p.plan.crashes.push_back({horizon / 4.0, n});
      p.plan.recoveries.push_back({3.0 * horizon / 4.0, n});
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

std::vector<SweepPoint> RobustnessGrid(
    const ExperimentOptions& base, const std::vector<double>& loss_rates,
    const std::vector<NamedFaultPlan>& plans) {
  std::vector<SweepPoint> points;
  for (AlgorithmType algo : kSweepAlgorithms) {
    for (double loss : loss_rates) {
      for (const NamedFaultPlan& plan : plans) {
        for (bool reliable : {false, true}) {
          SweepPoint point{base};
          point.plan = plan.label;
          ExperimentOptions& opt = point.options;
          opt.algorithm = algo;
          opt.env.physical.loss_rate = loss;
          opt.env.fault = plan.plan;
          opt.cempar.reliable_transport = reliable;
          opt.pace.reliable_dissemination = reliable;
          points.push_back(std::move(point));
        }
      }
    }
  }
  return points;
}

CsvWriter RobustnessCsv(const std::vector<SweepRow>& rows) {
  CsvWriter csv({"algorithm", "plan", "loss_rate", "reliable", "micro_f1",
                 "macro_f1", "prediction_success_rate", "failed", "degraded",
                 "attempted", "delivery_rate", "retry_overhead", "retransmits",
                 "give_ups", "injected_drops", "model_coverage"});
  for (const auto& [point, r] : rows) {
    csv.AddRow({r.algorithm, point.plan,
                CsvNumber(point.options.env.physical.loss_rate),
                point.options.cempar.reliable_transport ? "1" : "0",
                CsvNumber(r.metrics.micro_f1), CsvNumber(r.metrics.macro_f1),
                CsvNumber(r.prediction_success_rate()),
                std::to_string(r.failed_predictions),
                std::to_string(r.degraded_predictions),
                std::to_string(r.test_documents), CsvNumber(r.delivery_rate),
                CsvNumber(r.retry_overhead()), std::to_string(r.retransmits),
                std::to_string(r.give_ups), std::to_string(r.injected_drops),
                CsvNumber(r.model_coverage)});
  }
  return csv;
}

}  // namespace p2pdt
