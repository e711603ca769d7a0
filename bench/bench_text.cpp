// CLAIM3 — document preprocessing throughput (paper Sec. 2, "Document
// preprocessing"): tokenizer, stop-word filter, Porter stemmer, vectorizer
// and the assembled pipeline, on realistic generated documents; then a
// whole corpus per document (Process) and in one batch (ProcessAll at 1
// and 4 threads).

#include <benchmark/benchmark.h>

#include <string_view>

#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "text/preprocessor.h"

namespace {

using namespace p2pdt;

const std::vector<std::string>& SampleTexts() {
  static const std::vector<std::string> texts = [] {
    CorpusOptions opt;
    opt.num_users = 4;
    opt.min_docs_per_user = 64;
    opt.max_docs_per_user = 64;
    opt.vocabulary_size = 2000;
    opt.seed = 5;
    GeneratedCorpus corpus = std::move(GenerateCorpus(opt)).value();
    std::vector<std::string> out;
    for (const auto& doc : corpus.documents) out.push_back(doc.text);
    return out;
  }();
  return texts;
}

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const auto& texts = SampleTexts();
  std::size_t i = 0, bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i++ % texts.size()];
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Tokenize);

void BM_StopWordFilter(benchmark::State& state) {
  Tokenizer tokenizer;
  StopWordFilter filter;
  std::vector<std::vector<std::string>> token_lists;
  for (const auto& text : SampleTexts()) {
    token_lists.push_back(tokenizer.Tokenize(text));
  }
  std::size_t i = 0, tokens = 0;
  for (auto _ : state) {
    const auto& list = token_lists[i++ % token_lists.size()];
    benchmark::DoNotOptimize(filter.Filter(list));
    tokens += list.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_StopWordFilter);

void BM_PorterStem(benchmark::State& state) {
  Tokenizer tokenizer;
  PorterStemmer stemmer;
  std::vector<std::string> words;
  for (const auto& text : SampleTexts()) {
    for (auto& t : tokenizer.Tokenize(text)) words.push_back(std::move(t));
    if (words.size() > 20000) break;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stemmer.Stem(words[i++ % words.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PorterStem);

void BM_VectorizeHashed(benchmark::State& state) {
  PreprocessorOptions opt;
  Preprocessor pre(opt);
  Tokenizer tokenizer;
  const auto& texts = SampleTexts();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.Process(texts[i++ % texts.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VectorizeHashed);

void BM_FullPipelinePerDocument(benchmark::State& state) {
  Preprocessor pre;
  const auto& texts = SampleTexts();
  std::size_t i = 0, bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i++ % texts.size()];
    benchmark::DoNotOptimize(pre.Process(text));
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPipelinePerDocument);

void BM_PipelineGrowingVsHashedLexicon(benchmark::State& state) {
  PreprocessorOptions opt;
  opt.hashed_dimensions = state.range(0) ? (1u << 18) : 0;
  const auto& texts = SampleTexts();
  for (auto _ : state) {
    state.PauseTiming();
    Preprocessor pre(opt);  // fresh lexicon per run
    state.ResumeTiming();
    for (const auto& text : texts) {
      benchmark::DoNotOptimize(pre.Process(text));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(texts.size()));
}
BENCHMARK(BM_PipelineGrowingVsHashedLexicon)->Arg(0)->Arg(1);

// 4096 documents (16 ProcessAll chunks) for the corpus-level comparison.
const std::vector<std::string>& CorpusTexts() {
  static const std::vector<std::string> texts = [] {
    CorpusOptions opt;
    opt.num_users = 64;
    opt.min_docs_per_user = 64;
    opt.max_docs_per_user = 64;
    opt.vocabulary_size = 2000;
    opt.seed = 5;
    GeneratedCorpus corpus = std::move(GenerateCorpus(opt)).value();
    std::vector<std::string> out;
    for (auto& doc : corpus.documents) out.push_back(std::move(doc.text));
    return out;
  }();
  return texts;
}

// Baseline for BM_CorpusProcessAll: the same corpus, one Process call per
// document, into a fresh hashed lexicon each run.
void BM_CorpusPerDocument(benchmark::State& state) {
  const auto& texts = CorpusTexts();
  for (auto _ : state) {
    Preprocessor pre;
    for (const auto& text : texts) benchmark::DoNotOptimize(pre.Process(text));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(texts.size()));
}
BENCHMARK(BM_CorpusPerDocument)->Unit(benchmark::kMillisecond)->UseRealTime();

// Arg = global pool concurrency (P2PDT_THREADS equivalent).
void BM_CorpusProcessAll(benchmark::State& state) {
  ThreadPool::SetGlobalConcurrency(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::string_view> texts(CorpusTexts().begin(),
                                            CorpusTexts().end());
  for (auto _ : state) {
    Preprocessor pre;
    benchmark::DoNotOptimize(pre.ProcessAll(texts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(texts.size()));
  ThreadPool::SetGlobalConcurrency(0);
}
BENCHMARK(BM_CorpusProcessAll)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
