#include "p2pdmt/service_harness.h"

#include <algorithm>
#include <utility>

#include "p2pdmt/data_distribution.h"

namespace p2pdt {

Result<std::unique_ptr<TrainedService>> BuildTrainedService(
    const VectorizedCorpus& corpus, const ServiceHarnessOptions& options) {
  CorpusSplit split = SplitCorpus(corpus, options.train_fraction, options.seed);
  if (split.train.size() == 0 || split.test.size() == 0) {
    return Status::InvalidArgument(
        "service harness needs non-empty train and test splits");
  }

  ExperimentOptions algo_options;
  algo_options.algorithm = options.algorithm;
  algo_options.env = options.env;
  algo_options.env.observe.metrics = true;
  algo_options.cempar = options.cempar;
  algo_options.pace = options.pace;
  Result<std::vector<DatasetShard>> shards = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(std::move(split.train)),
      options.env.num_peers, options.distribution, &split.train_user);
  if (!shards.ok()) return shards.status();
  Result<ClassifierNetwork> network = SetUpNetwork(
      algo_options, std::move(shards).value(), corpus.dataset.num_tags());
  if (!network.ok()) return network.status();

  auto service = std::make_unique<TrainedService>();
  service->env = std::move(network->env);
  service->classifier = std::move(network->algo);
  service->num_peers = options.env.num_peers;
  Result<double> train_sim_seconds = TrainToQuiescence(
      *service->env, *service->classifier, options.max_train_sim_seconds);
  if (!train_sim_seconds.ok()) return train_sim_seconds.status();
  service->train_sim_seconds = train_sim_seconds.value();

  service->catalog =
      BuildServiceCatalog(corpus, options.train_fraction, options.max_docs,
                          options.seed);

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
  const std::size_t catalog =
      max_docs == 0 ? split.test.size()
                    : std::min(max_docs, split.test.size());
  std::vector<SparseVector> docs;
  docs.reserve(catalog);
  for (std::size_t i = 0; i < catalog; ++i) docs.push_back(split.test[i].x);
  return docs;
}

}  // namespace p2pdt
