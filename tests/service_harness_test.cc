// Service harness: the daemon's trained network and request catalog. A
// client rebuilds the catalog from (corpus seed, split seed) alone, so it
// must equal the daemon's element for element, and the trained service
// must answer every catalog document.

#include <string>

#include <gtest/gtest.h>

#include "p2pdmt/service_harness.h"

namespace p2pdt {
namespace {

const VectorizedCorpus& TinyCorpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 10;
    opt.min_docs_per_user = 30;
    opt.max_docs_per_user = 40;
    opt.num_tags = 5;
    opt.vocabulary_size = 1000;
    opt.seed = 4242;
    return std::move(MakeVectorizedCorpus(opt)).value();
  }();
  return corpus;
}

constexpr std::size_t kCatalogDocs = 12;
constexpr uint64_t kSeed = 20100913;

std::unique_ptr<TrainedService> Build(AlgorithmType algorithm) {
  ExperimentOptions options;
  options.algorithm = algorithm;
  options.env.num_peers = 10;
  options.seed = kSeed;
  Result<std::unique_ptr<TrainedService>> service =
      BuildTrainedService(TinyCorpus(), options, kCatalogDocs);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(service).value() : nullptr;
}

/// The tags of every catalog answer, "t,t;t;..." in catalog order.
std::string ServeCatalog(TrainedService& service) {
  std::string tags;
  for (std::size_t i = 0; i < service.catalog.size(); ++i) {
    P2PPrediction p = service.Serve(i, service.catalog[i]);
    EXPECT_TRUE(p.success) << "catalog document " << i;
    if (i > 0) tags += ';';
    for (std::size_t t = 0; t < p.tags.size(); ++t) {
      if (t > 0) tags += ',';
      tags += std::to_string(p.tags[t]);
    }
  }
  return tags;
}

class ServiceHarnessTest : public ::testing::TestWithParam<AlgorithmType> {};

TEST(ServiceHarnessOptionsTest, RejectsExperimentFieldsItIgnores) {
  ExperimentOptions options;
  options.env.num_peers = 10;
  options.trace_path = "unused.json";
  Result<std::unique_ptr<TrainedService>> service =
      BuildTrainedService(TinyCorpus(), options, kCatalogDocs);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("trace_path"), std::string::npos)
      << service.status().ToString();
}

TEST_P(ServiceHarnessTest, CatalogMatchesTheClientsRebuild) {
  std::unique_ptr<TrainedService> service = Build(GetParam());
  ASSERT_NE(service, nullptr);
  std::vector<SparseVector> client =
      BuildServiceCatalog(TinyCorpus(), /*train_fraction=*/0.2, kCatalogDocs,
                          kSeed);
  ASSERT_EQ(service->catalog.size(), kCatalogDocs);
  ASSERT_EQ(client.size(), service->catalog.size());
  for (std::size_t i = 0; i < client.size(); ++i) {
    EXPECT_TRUE(client[i] == service->catalog[i]) << "catalog document " << i;
  }
  // Uncapped, the catalog is the whole test split.
  EXPECT_GT(BuildServiceCatalog(TinyCorpus(), 0.2, 0, kSeed).size(),
            kCatalogDocs);
}

TEST_P(ServiceHarnessTest, ServesEveryCatalogDocument) {
  std::unique_ptr<TrainedService> service = Build(GetParam());
  ASSERT_NE(service, nullptr);
  EXPECT_GT(service->train_sim_seconds, 0.0);
  // The answers the harness gave when it was written: a change to how the
  // network is stood up or trained shows up here.
  const std::string expected = GetParam() == AlgorithmType::kPace
                                   ? "4;3;4;1;3;3;2;2;4;4;4;4"
                                   : "4;3;4;1;0,3;3;2;2;4;0,4;4;4";
  EXPECT_EQ(ServeCatalog(*service), expected);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, ServiceHarnessTest,
                         ::testing::Values(AlgorithmType::kPace,
                                           AlgorithmType::kCempar),
                         [](const ::testing::TestParamInfo<AlgorithmType>& i) {
                           return std::string(AlgorithmTypeToString(i.param));
                         });

}  // namespace
}  // namespace p2pdt
