// Reference equivalence for the batch text pipeline: Preprocessor::ProcessAll
// (and VectorizeCorpus / VectorizeStream, which run on it) must produce the
// same bytes and leave the same lexicon as calling Process once per
// document, for every pipeline option, corpus size and thread count.

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "corpus/vectorize.h"
#include "text/preprocessor.h"

namespace p2pdt {
namespace {

constexpr std::size_t kChunk = Preprocessor::kBatchChunkDocs;

// The per-document VectorizeCorpus loop the batch path replaced: the
// scalar reference every batch result is held against.
VectorizedCorpus ReferenceVectorize(const std::vector<RawDocument>& documents,
                                    const std::vector<std::string>& tag_names,
                                    std::size_t num_users,
                                    Preprocessor& preprocessor) {
  VectorizedCorpus out;
  out.tag_names = tag_names;
  out.num_users = num_users;
  for (std::size_t t = 0; t < tag_names.size(); ++t) {
    out.tag_ids.emplace(tag_names[t], static_cast<TagId>(t));
  }
  out.dataset.set_num_tags(static_cast<TagId>(tag_names.size()));
  for (const RawDocument& doc : documents) {
    MultiLabelExample ex;
    ex.x = preprocessor.Process(doc.text);
    for (const std::string& tag : doc.tags) {
      ex.tags.push_back(out.tag_ids.at(tag));
    }
    out.doc_user.push_back(doc.user);
    out.dataset.Add(std::move(ex));
  }
  return out;
}

void ExpectSameVector(const SparseVector& want, const SparseVector& got,
                      std::size_t doc) {
  ASSERT_EQ(want.nnz(), got.nnz()) << "document " << doc;
  for (std::size_t k = 0; k < want.nnz(); ++k) {
    const auto& [want_id, want_w] = want.entries()[k];
    const auto& [got_id, got_w] = got.entries()[k];
    EXPECT_EQ(want_id, got_id) << "document " << doc << " entry " << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(want_w), std::bit_cast<uint64_t>(got_w))
        << "document " << doc << " entry " << k << ": " << want_w
        << " vs " << got_w;
  }
}

void ExpectSameVectors(const std::vector<SparseVector>& want,
                       const std::vector<SparseVector>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ExpectSameVector(want[i], got[i], i);
  }
}

// Same size, and the same reverse entry for every id either side emitted
// (in growing mode: every id below the bound).
void ExpectSameLexicon(const Lexicon& want, const Lexicon& got,
                       const std::vector<SparseVector>& vectors) {
  EXPECT_EQ(want.size(), got.size());
  EXPECT_EQ(want.dimension_bound(), got.dimension_bound());
  std::set<uint32_t> ids;
  for (const SparseVector& v : vectors) {
    for (const auto& [id, w] : v.entries()) ids.insert(id);
  }
  if (!want.hashed()) {
    for (uint32_t id = 0; id < want.dimension_bound(); ++id) ids.insert(id);
  }
  for (uint32_t id : ids) {
    Result<std::string> a = want.GetWord(id);
    Result<std::string> b = got.GetWord(id);
    ASSERT_EQ(a.ok(), b.ok()) << "id " << id;
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value()) << "id " << id;
    }
  }
}

// Texts that exercise every tokenizer and filter branch: empty and
// stop-word-only documents, apostrophes, digits, case, length limits,
// sensitive words and inflected forms sharing a stem.
std::vector<std::string> EdgeTexts() {
  return {
      "",
      "the and of to a",
      "Don't can't won't isn't it's 'quoted' o'clock",
      "win32 b2b 2010 x86_64 ipv6 route66 42",
      "MiXeD CaSe mixed case MIXED",
      "connecting connections connected connect connector",
      "projectx budget for ProjectX launch of projectx",
      "a b cc ddd eeeee ffffffffff gggggggggggggggggggggggggggggggggggggggggggg",
      "... !!! --- ,,, ''' ",
      "caf\xC3\xA9 na\xC3\xAFve r\xC3\xA9sum\xC3\xA9 shop",
      "tagging tagged tags tag tagger taggers tagging tagging",
      "relational generalization ponies caresses hopeful goodness",
  };
}

// `n` texts: the edge texts interleaved with generated documents, so a
// chunk mixes degenerate and realistic inputs.
std::vector<std::string> MixedTexts(std::size_t n) {
  CorpusOptions opt;
  opt.num_users = 8;
  opt.min_docs_per_user = 80;
  opt.max_docs_per_user = 80;
  opt.vocabulary_size = 600;
  opt.min_doc_words = 5;
  opt.max_doc_words = 40;
  opt.seed = 77;
  GeneratedCorpus corpus = std::move(GenerateCorpus(opt)).value();
  const std::vector<std::string> edges = EdgeTexts();
  std::vector<std::string> out;
  for (std::size_t i = 0; out.size() < n; ++i) {
    if (i % 5 == 0) out.push_back(edges[(i / 5) % edges.size()]);
    if (out.size() < n) {
      out.push_back(corpus.documents[i % corpus.documents.size()].text);
    }
  }
  return out;
}

std::vector<std::string_view> Views(const std::vector<std::string>& texts) {
  return std::vector<std::string_view>(texts.begin(), texts.end());
}

// One pipeline configuration under test.
struct Config {
  std::string name;
  PreprocessorOptions options;
  bool fit_idf = false;
};

std::vector<Config> Configs() {
  std::vector<Config> out;
  auto add = [&](std::string name, auto edit, bool fit_idf = false) {
    Config c;
    c.name = std::move(name);
    c.options.sensitive_words = {"projectx", "budget"};
    edit(c.options);
    c.fit_idf = fit_idf;
    out.push_back(std::move(c));
  };
  add("hashed", [](PreprocessorOptions&) {});
  add("growing", [](PreprocessorOptions& o) { o.hashed_dimensions = 0; });
  // A tiny hashed space makes stems collide: ids merge inside a document
  // and GetWord keeps the first writer.
  add("hashed_collisions",
      [](PreprocessorOptions& o) { o.hashed_dimensions = 13; });
  add("log_tf", [](PreprocessorOptions& o) {
    o.vectorizer.weighting = TermWeighting::kLogTermFrequency;
  });
  add("binary", [](PreprocessorOptions& o) {
    o.vectorizer.weighting = TermWeighting::kBinary;
  });
  add("tf_idf_hashed", [](PreprocessorOptions& o) {
    o.vectorizer.weighting = TermWeighting::kTfIdf;
  }, true);
  add("tf_idf_growing", [](PreprocessorOptions& o) {
    o.hashed_dimensions = 0;
    o.vectorizer.weighting = TermWeighting::kTfIdf;
  }, true);
  add("no_l2", [](PreprocessorOptions& o) { o.vectorizer.l2_normalize = false; });
  add("no_l2_collisions", [](PreprocessorOptions& o) {
    o.hashed_dimensions = 5;
    o.vectorizer.l2_normalize = false;
  });
  add("case_kept", [](PreprocessorOptions& o) { o.tokenizer.lowercase = false; });
  add("no_alphanumeric", [](PreprocessorOptions& o) {
    o.tokenizer.keep_alphanumeric = false;
  });
  add("length_1_to_5", [](PreprocessorOptions& o) {
    o.tokenizer.min_token_length = 1;
    o.tokenizer.max_token_length = 5;
  });
  return out;
}

// Builds the configured preprocessor; with fit_idf the document
// frequencies come from the first half of `texts`.
Preprocessor Make(const Config& c, const std::vector<std::string>& texts) {
  Preprocessor p(c.options);
  if (c.fit_idf) {
    std::vector<std::vector<std::string>> analyzed;
    for (std::size_t i = 0; i < texts.size() / 2; ++i) {
      analyzed.push_back(p.Analyze(texts[i]));
    }
    p.vectorizer().FitIdf(analyzed, p.lexicon());
  }
  return p;
}

class TextBatchTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { ThreadPool::SetGlobalConcurrency(GetParam()); }
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

TEST_P(TextBatchTest, MatchesPerDocumentProcessForEveryConfigAndSize) {
  const std::vector<std::string> all = MixedTexts(2 * kChunk + 1);
  for (const Config& c : Configs()) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk,
                          kChunk + 1, 2 * kChunk + 1}) {
      SCOPED_TRACE(c.name + " n=" + std::to_string(n));
      const std::vector<std::string> texts(all.begin(), all.begin() + n);
      Preprocessor reference = Make(c, all);
      Preprocessor batch = Make(c, all);
      std::vector<SparseVector> want;
      for (const std::string& t : texts) want.push_back(reference.Process(t));
      std::vector<SparseVector> got = batch.ProcessAll(Views(texts));
      ExpectSameVectors(want, got);
      ExpectSameLexicon(reference.lexicon(), batch.lexicon(), want);
    }
  }
}

TEST_P(TextBatchTest, EdgeTextsAloneMatch) {
  const std::vector<std::string> texts = EdgeTexts();
  for (const Config& c : Configs()) {
    SCOPED_TRACE(c.name);
    Preprocessor reference = Make(c, texts);
    Preprocessor batch = Make(c, texts);
    std::vector<SparseVector> want;
    for (const std::string& t : texts) want.push_back(reference.Process(t));
    std::vector<SparseVector> got = batch.ProcessAll(Views(texts));
    ExpectSameVectors(want, got);
    ExpectSameLexicon(reference.lexicon(), batch.lexicon(), want);
    EXPECT_TRUE(got[0].empty());  // ""
    EXPECT_TRUE(got[1].empty());  // stop words only
  }
}

TEST_P(TextBatchTest, CrossesWaveBoundaries) {
  // Two waves, the second one partial, and a partial last chunk.
  const std::vector<std::string> texts =
      MixedTexts(kChunk * Preprocessor::kBatchWaveChunks + kChunk + 1);
  for (uint32_t dims : {0u, 1u << 18}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    PreprocessorOptions opt;
    opt.hashed_dimensions = dims;
    Preprocessor reference(opt), batch(opt);
    std::vector<SparseVector> want;
    for (const std::string& t : texts) want.push_back(reference.Process(t));
    std::vector<SparseVector> got = batch.ProcessAll(Views(texts));
    ExpectSameVectors(want, got);
    ExpectSameLexicon(reference.lexicon(), batch.lexicon(), want);
  }
}

TEST_P(TextBatchTest, ContinuesAnAlreadyGrownLexicon) {
  // Words already in the lexicon keep their ids; the batch commit only
  // appends the words a per-document loop would have appended.
  const std::vector<std::string> texts = MixedTexts(kChunk + 7);
  for (uint32_t dims : {0u, 1u << 18, 11u}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    PreprocessorOptions opt;
    opt.hashed_dimensions = dims;
    Preprocessor reference(opt), batch(opt);
    const std::size_t half = texts.size() / 2;
    std::vector<SparseVector> want;
    for (const std::string& t : texts) want.push_back(reference.Process(t));
    std::vector<SparseVector> got;
    for (std::size_t i = 0; i < half; ++i) got.push_back(batch.Process(texts[i]));
    const std::vector<std::string> rest(texts.begin() + half, texts.end());
    for (SparseVector& v : batch.ProcessAll(Views(rest))) {
      got.push_back(std::move(v));
    }
    ExpectSameVectors(want, got);
    ExpectSameLexicon(reference.lexicon(), batch.lexicon(), want);
  }
}

TEST_P(TextBatchTest, NestedInsidePoolTaskRunsInline) {
  // Two preprocessors batch-process from inside one ParallelFor: each call
  // runs inline on its task's thread and still matches the reference.
  const std::vector<std::string> texts = MixedTexts(kChunk + 3);
  std::vector<SparseVector> want;
  Preprocessor reference;
  for (const std::string& t : texts) want.push_back(reference.Process(t));
  std::vector<Preprocessor> batch(2);
  std::vector<std::vector<SparseVector>> got(2);
  ParallelFor(0, 2, 1, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      got[i] = batch[i].ProcessAll(Views(texts));
    }
  });
  for (std::size_t i = 0; i < 2; ++i) {
    ExpectSameVectors(want, got[i]);
    ExpectSameLexicon(reference.lexicon(), batch[i].lexicon(), want);
  }
}

void ExpectSameCorpus(const VectorizedCorpus& want,
                      const VectorizedCorpus& got) {
  EXPECT_EQ(want.tag_names, got.tag_names);
  EXPECT_EQ(want.tag_ids, got.tag_ids);
  EXPECT_EQ(want.num_users, got.num_users);
  EXPECT_EQ(want.doc_user, got.doc_user);
  EXPECT_EQ(want.dataset.num_tags(), got.dataset.num_tags());
  ASSERT_EQ(want.dataset.size(), got.dataset.size());
  for (std::size_t i = 0; i < want.dataset.size(); ++i) {
    EXPECT_EQ(want.dataset[i].tags, got.dataset[i].tags) << "document " << i;
    ExpectSameVector(want.dataset[i].x, got.dataset[i].x, i);
  }
}

std::vector<SparseVector> VectorsOf(const VectorizedCorpus& c) {
  std::vector<SparseVector> out;
  for (std::size_t i = 0; i < c.dataset.size(); ++i) {
    out.push_back(c.dataset[i].x);
  }
  return out;
}

TEST_P(TextBatchTest, VectorizeCorpusMatchesPerDocumentLoop) {
  CorpusOptions opt;
  opt.num_users = 12;
  opt.min_docs_per_user = 20;
  opt.max_docs_per_user = 90;
  opt.vocabulary_size = 1500;
  opt.seed = 31;
  GeneratedCorpus corpus = std::move(GenerateCorpus(opt)).value();
  ASSERT_GT(corpus.documents.size(), 2 * kChunk);
  for (uint32_t dims : {0u, 1u << 18}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    PreprocessorOptions popt;
    popt.hashed_dimensions = dims;
    Preprocessor reference(popt), batch(popt);
    VectorizedCorpus want = ReferenceVectorize(
        corpus.documents, corpus.tag_names, corpus.num_users(), reference);
    Result<VectorizedCorpus> got = VectorizeCorpus(corpus, batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameCorpus(want, got.value());
    ExpectSameLexicon(reference.lexicon(), batch.lexicon(), VectorsOf(want));
  }
}

TEST_P(TextBatchTest, VectorizeStreamMatchesPerDocumentLoop) {
  StreamOptions opt;
  opt.base.num_users = 10;
  opt.base.num_tags = 5;
  opt.base.vocabulary_size = 400;
  opt.base.seed = 4242;
  opt.num_epochs = 6;
  Result<StreamedCorpus> stream = GenerateStream(opt);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  Preprocessor reference, batch;
  VectorizedCorpus want =
      ReferenceVectorize(stream->documents, stream->tag_names,
                         stream->num_users(), reference);
  Result<VectorizedStream> got = VectorizeStream(stream.value(), batch);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameCorpus(want, got->corpus);
  ExpectSameLexicon(reference.lexicon(), batch.lexicon(), VectorsOf(want));
  EXPECT_EQ(got->doc_epoch, stream->doc_epoch);
  EXPECT_EQ(got->num_epochs, stream->num_epochs);
  EXPECT_EQ(got->first_drift_epoch, stream->first_drift_epoch);
}

INSTANTIATE_TEST_SUITE_P(Threads, TextBatchTest, ::testing::Values(1, 4),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace p2pdt
