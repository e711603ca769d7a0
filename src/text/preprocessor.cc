#include "text/preprocessor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace p2pdt {

namespace {

// One ProcessAll chunk: a contiguous run of documents analyzed together.
// Its buffers are reused by the same slot of every wave.
struct BatchChunk {
  // Distinct stems of the chunk in first-seen order; index = local stem id.
  std::vector<std::string> stems;
  // Lexicon id of each local stem, filled by the serial commit.
  std::vector<uint32_t> ids;
  // (local stem id, term count) of every document, concatenated; document d
  // of the chunk owns [doc_end[d - 1], doc_end[d]).
  std::vector<std::pair<uint32_t, uint32_t>> counts;
  std::vector<std::size_t> doc_end;
};

using StringIndex =
    std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>;

constexpr uint32_t kFiltered = std::numeric_limits<uint32_t>::max();

// Phase 1 for one chunk. The memo maps each distinct raw token to
// kFiltered or to its local stem id, so a token is filtered and stemmed
// once per chunk however often it recurs.
void AnalyzeChunk(const Tokenizer& tokenizer, const StopWordFilter& stop_words,
                  const PorterStemmer& stemmer,
                  std::span<const std::string_view> texts, BatchChunk& chunk) {
  chunk.stems.clear();
  chunk.counts.clear();
  chunk.doc_end.clear();
  StringIndex memo;
  StringIndex stem_ids;
  std::vector<uint32_t> tf;       // per local stem, in the current document
  std::vector<uint32_t> touched;  // local stems of the current document
  std::string buffer;
  for (std::string_view text : texts) {
    tokenizer.ForEachToken(text, buffer, [&](std::string_view token) {
      auto it = memo.find(token);
      if (it == memo.end()) {
        uint32_t local = kFiltered;
        if (!stop_words.IsFiltered(token)) {
          std::string stem = stemmer.Stem(token);
          auto [s, inserted] = stem_ids.try_emplace(
              stem, static_cast<uint32_t>(chunk.stems.size()));
          if (inserted) {
            chunk.stems.push_back(std::move(stem));
            tf.push_back(0);
          }
          local = s->second;
        }
        it = memo.emplace(token, local).first;
      }
      const uint32_t local = it->second;
      if (local != kFiltered && tf[local]++ == 0) touched.push_back(local);
    });
    for (uint32_t local : touched) {
      chunk.counts.emplace_back(local, tf[local]);
      tf[local] = 0;
    }
    touched.clear();
    chunk.doc_end.push_back(chunk.counts.size());
  }
}

}  // namespace

Preprocessor::Preprocessor(Options options)
    : options_(options),
      tokenizer_(options.tokenizer),
      vectorizer_(options.vectorizer),
      lexicon_(options.hashed_dimensions > 0
                   ? Lexicon::Hashed(options.hashed_dimensions)
                   : Lexicon()) {
  stop_words_.AddSensitiveWords(options.sensitive_words);
}

std::vector<std::string> Preprocessor::Analyze(std::string_view text) const {
  // Stemming can only shorten words, but a stem could collide with a stop
  // word ("doe" etc.) — the reference pipelines do not re-filter, and
  // neither do we.
  std::vector<std::string> tokens;
  std::string buffer;
  tokenizer_.ForEachToken(text, buffer, [&](std::string_view token) {
    if (!stop_words_.IsFiltered(token)) tokens.push_back(stemmer_.Stem(token));
  });
  return tokens;
}

SparseVector Preprocessor::Process(std::string_view text) {
  return vectorizer_.Vectorize(Analyze(text), lexicon_);
}

SparseVector Preprocessor::ProcessConst(std::string_view text) const {
  return vectorizer_.VectorizeConst(Analyze(text), lexicon_);
}

std::vector<SparseVector> Preprocessor::ProcessAll(
    std::span<const std::string_view> texts) {
  const std::size_t n = texts.size();
  std::vector<SparseVector> out(n);
  // One wave of chunks at a time: the chunk buffers are reused from wave
  // to wave, so the temporaries never grow with the corpus.
  std::vector<BatchChunk> wave(kBatchWaveChunks);
  constexpr std::size_t kWaveDocs = kBatchWaveChunks * kBatchChunkDocs;
  for (std::size_t first = 0; first < n; first += kWaveDocs) {
    const std::size_t num_chunks =
        (std::min(kWaveDocs, n - first) + kBatchChunkDocs - 1) /
        kBatchChunkDocs;

    // (1) Analyze: chunks touch only their own slot.
    ParallelFor(0, num_chunks, 1, 0, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        const std::size_t begin = first + c * kBatchChunkDocs;
        AnalyzeChunk(tokenizer_, stop_words_, stemmer_,
                     texts.subspan(begin, std::min(kBatchChunkDocs, n - begin)),
                     wave[c]);
      }
    });

    // (2) Commit: chunk order then first-seen order inside a chunk is the
    // order in which a per-document loop first meets each stem, so the
    // lexicon sees the same sequence of new words.
    for (std::size_t c = 0; c < num_chunks; ++c) {
      BatchChunk& chunk = wave[c];
      chunk.ids.clear();
      for (const std::string& stem : chunk.stems) {
        chunk.ids.push_back(lexicon_.GetOrAddId(stem));
      }
    }

    // (3) Finish. Term counts are small integers, so summing two stems that
    // hash to one id gives the same double as counting token by token.
    ParallelFor(0, num_chunks, 1, 0, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        const BatchChunk& chunk = wave[c];
        std::size_t begin = 0;
        for (std::size_t d = 0; d < chunk.doc_end.size(); ++d) {
          const std::size_t end = chunk.doc_end[d];
          std::vector<SparseVector::Entry> entries;
          entries.reserve(end - begin);
          for (std::size_t k = begin; k < end; ++k) {
            const auto [local, count] = chunk.counts[k];
            entries.emplace_back(chunk.ids[local], count);
          }
          out[first + c * kBatchChunkDocs + d] =
              vectorizer_.Finish(std::move(entries));
          begin = end;
        }
      }
    });
  }
#if defined(__GLIBC__)
  // The phases allocate and free their temporaries on pool threads, and
  // glibc keeps each thread's freed memory resident in that thread's arena.
  // Hand the free pages back once the batch is done: on the sim-pace
  // benchmark this lowers peak RSS by about 6 MiB (142 -> 136 MiB).
  malloc_trim(0);
#endif
  return out;
}

}  // namespace p2pdt
