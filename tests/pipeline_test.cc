// Integration test for the complete Fig. 1 pipeline: corpus → preprocess →
// distribute to peers → P2P collaborative learning in the simulator →
// DocTagger consuming the global model through the sim bridge → suggest /
// AutoTag / refine / browse.

#include <gtest/gtest.h>

#include "core/doc_tagger.h"
#include "corpus/vectorize.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/sim_scorer.h"

namespace p2pdt {
namespace {

struct PipelineFixture {
  GeneratedCorpus corpus;
  VectorizedCorpus vectorized;
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> algo;
  ExperimentOptions options;

  PipelineFixture() {
    CorpusOptions co;
    co.num_users = 10;
    co.min_docs_per_user = 40;
    co.max_docs_per_user = 50;
    co.num_tags = 5;
    co.vocabulary_size = 1000;
    co.seed = 31337;
    corpus = std::move(GenerateCorpus(co)).value();
    Preprocessor pre;
    vectorized = std::move(VectorizeCorpus(corpus, pre)).value();

    options.env.num_peers = 10;
    options.algorithm = AlgorithmType::kCempar;
    options.distribution.cls = ClassDistribution::kByUser;
    env = std::move(Environment::Create(options.env)).value();
    algo = std::move(MakeClassifier(*env, options)).value();
  }

  Status TrainOnSplit(const CorpusSplit& split) {
    Result<std::vector<DatasetShard>> peers = DistributeDataShared(
        std::make_shared<const MultiLabelDataset>(split.train), 10,
        options.distribution, &split.train_user);
    P2PDT_RETURN_IF_ERROR(peers.status());
    P2PDT_RETURN_IF_ERROR(algo->SetupShards(std::move(peers).value(),
                                            vectorized.dataset.num_tags()));
    bool done = false;
    Status status = Status::OK();
    algo->Train([&](Status s) {
      status = s;
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return status;
  }
};

TEST(PipelineTest, EndToEndCollaborativeTagging) {
  PipelineFixture f;
  CorpusSplit split = SplitCorpus(f.vectorized, 0.2, 5);
  ASSERT_TRUE(f.TrainOnSplit(split).ok());

  // The local user (peer 3) runs a DocTagger fed by the P2P backend.
  DocTagger tagger;
  tagger.AttachGlobalScorer(MakeSimScorer(*f.algo, *f.env, /*self=*/3),
                            f.corpus.tag_names);

  // Re-add raw documents owned by user 3 and auto-tag them via the global
  // model; compare against generator ground truth.
  std::size_t correct = 0, total = 0;
  for (std::size_t doc_idx : f.corpus.user_documents[3]) {
    const RawDocument& raw = f.corpus.documents[doc_idx];
    DocId id = tagger.AddDocument(raw.title, raw.text);
    Result<std::vector<std::string>> assigned = tagger.AutoTag(id);
    ASSERT_TRUE(assigned.ok());
    for (const std::string& tag : assigned.value()) {
      ++total;
      for (const std::string& truth : raw.tags) {
        if (tag == truth) {
          ++correct;
          break;
        }
      }
    }
  }
  ASSERT_GT(total, 0u);
  double precision = static_cast<double>(correct) / total;
  EXPECT_GT(precision, 0.8) << correct << "/" << total;

  // The library and tag cloud reflect the auto-tagging.
  EXPECT_GT(tagger.library().num_documents(), 0u);
  TagCloud cloud = tagger.BuildTagCloud();
  EXPECT_GT(cloud.nodes().size(), 0u);
}

TEST(PipelineTest, SuggestionsExposeGlobalConfidences) {
  PipelineFixture f;
  CorpusSplit split = SplitCorpus(f.vectorized, 0.2, 6);
  ASSERT_TRUE(f.TrainOnSplit(split).ok());

  DocTagger tagger;
  tagger.AttachGlobalScorer(MakeSimScorer(*f.algo, *f.env, 0),
                            f.corpus.tag_names);
  const RawDocument& raw = f.corpus.documents[f.corpus.user_documents[0][0]];
  DocId id = tagger.AddDocument(raw.title, raw.text);
  Result<std::vector<TagSuggestion>> suggestions = tagger.SuggestTags(id);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_FALSE(suggestions->empty());
  // Alphabetical order, confidences in (0,1).
  for (std::size_t i = 0; i < suggestions->size(); ++i) {
    EXPECT_GT((*suggestions)[i].confidence, 0.0);
    EXPECT_LT((*suggestions)[i].confidence, 1.0);
    if (i > 0) {
      EXPECT_LT((*suggestions)[i - 1].tag, (*suggestions)[i].tag);
    }
  }
  // The ground-truth tag should be among the most confident.
  double truth_conf = 0, max_conf = 0;
  for (const TagSuggestion& s : suggestions.value()) {
    max_conf = std::max(max_conf, s.confidence);
    for (const std::string& t : raw.tags) {
      if (s.tag == t) truth_conf = std::max(truth_conf, s.confidence);
    }
  }
  EXPECT_NEAR(truth_conf, max_conf, 0.35);
}

TEST(PipelineTest, RefinementPersonalizesOverGlobalModel) {
  PipelineFixture f;
  CorpusSplit split = SplitCorpus(f.vectorized, 0.2, 7);
  ASSERT_TRUE(f.TrainOnSplit(split).ok());

  DocTagger tagger;
  tagger.AttachGlobalScorer(MakeSimScorer(*f.algo, *f.env, 1),
                            f.corpus.tag_names);
  const RawDocument& raw = f.corpus.documents[f.corpus.user_documents[1][0]];
  DocId id = tagger.AddDocument(raw.title, raw.text);
  ASSERT_TRUE(tagger.AutoTag(id).ok());

  // The user disagrees with the global model and insists on a personal tag.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tagger.Refine(id, {"mytag"}).ok());
  }
  const Document& doc = *tagger.GetDocument(id).value();
  EXPECT_EQ(doc.TagNames(), (std::vector<std::string>{"mytag"}));
  // Refinement also trains the local side for future docs.
  ASSERT_TRUE(tagger.TrainLocal().ok());
  EXPECT_TRUE(tagger.has_local_model());
}

}  // namespace
}  // namespace p2pdt
