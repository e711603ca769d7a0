#include "p2pdmt/service_harness.h"

#include <utility>

namespace p2pdt {

Result<std::unique_ptr<TrainedService>> BuildTrainedService(
    const VectorizedCorpus& corpus, const ExperimentOptions& options,
    std::size_t max_docs) {
  P2PDT_RETURN_IF_ERROR(
      RejectUnusedOptions(options, "service", /*splits_corpus=*/true));
  ExperimentOptions service_options = options;
  service_options.env.observe.metrics = true;
  Result<StoodUpNetwork> stood_up = StandUpNetwork(corpus, service_options);
  if (!stood_up.ok()) return stood_up.status();
  if (stood_up->train_documents == 0 || stood_up->test.size() == 0) {
    return Status::InvalidArgument(
        "service harness needs non-empty train and test splits");
  }

  auto service = std::make_unique<TrainedService>();
  service->env = std::move(stood_up->network.env);
  service->classifier = std::move(stood_up->network.algo);
  service->num_peers = options.env.num_peers;
  Result<double> train_sim_seconds = TrainToQuiescence(
      *service->env, *service->classifier, options.max_train_sim_seconds);
  if (!train_sim_seconds.ok()) return train_sim_seconds.status();
  service->train_sim_seconds = train_sim_seconds.value();

  for (const SparseVector* doc : RequestCatalog(stood_up->test, max_docs)) {
    service->catalog.push_back(*doc);
  }

  service->host =
      std::make_unique<ServiceHost>(&service->env->sim(),
                                    service->classifier.get());
  return service;
}

std::vector<SparseVector> BuildServiceCatalog(const VectorizedCorpus& corpus,
                                              double train_fraction,
                                              std::size_t max_docs,
                                              uint64_t seed) {
  CorpusSplit split = SplitCorpus(corpus, train_fraction, seed);
  std::vector<SparseVector> docs;
  for (const SparseVector* doc : RequestCatalog(split.test, max_docs)) {
    docs.push_back(*doc);
  }
  return docs;
}

}  // namespace p2pdt
