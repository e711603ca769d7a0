#include "corpus/vectorize.h"

#include <string_view>

namespace p2pdt {

namespace {

// The loop VectorizeCorpus and VectorizeStream share: dense tag ids in
// `tag_names` order, every text through one Preprocessor::ProcessAll batch.
Result<VectorizedCorpus> VectorizeDocuments(
    const std::vector<RawDocument>& documents,
    const std::vector<std::string>& tag_names, std::size_t num_users,
    Preprocessor& preprocessor) {
  VectorizedCorpus out;
  out.tag_names = tag_names;
  out.num_users = num_users;
  for (std::size_t t = 0; t < tag_names.size(); ++t) {
    out.tag_ids.emplace(tag_names[t], static_cast<TagId>(t));
  }
  out.dataset.set_num_tags(static_cast<TagId>(tag_names.size()));

  std::vector<std::string_view> texts;
  texts.reserve(documents.size());
  for (const RawDocument& doc : documents) texts.push_back(doc.text);
  std::vector<SparseVector> vectors = preprocessor.ProcessAll(texts);
  for (std::size_t i = 0; i < documents.size(); ++i) {
    MultiLabelExample ex;
    ex.x = std::move(vectors[i]);
    for (const std::string& tag : documents[i].tags) {
      auto it = out.tag_ids.find(tag);
      if (it == out.tag_ids.end()) {
        return Status::Internal("document references unknown tag: " + tag);
      }
      ex.tags.push_back(it->second);
    }
    out.doc_user.push_back(documents[i].user);
    out.dataset.Add(std::move(ex));
  }
  return out;
}

}  // namespace

Result<VectorizedCorpus> VectorizeCorpus(const GeneratedCorpus& corpus,
                                         Preprocessor& preprocessor) {
  return VectorizeDocuments(corpus.documents, corpus.tag_names,
                            corpus.num_users(), preprocessor);
}

Result<VectorizedCorpus> MakeVectorizedCorpus(const CorpusOptions& options) {
  Result<GeneratedCorpus> corpus = GenerateCorpus(options);
  if (!corpus.ok()) return corpus.status();
  Preprocessor preprocessor;
  return VectorizeCorpus(corpus.value(), preprocessor);
}

Result<VectorizedStream> VectorizeStream(const StreamedCorpus& stream,
                                         Preprocessor& preprocessor) {
  Result<VectorizedCorpus> corpus = VectorizeDocuments(
      stream.documents, stream.tag_names, stream.num_users(), preprocessor);
  if (!corpus.ok()) return corpus.status();
  VectorizedStream out;
  out.corpus = std::move(corpus).value();
  out.num_epochs = stream.num_epochs;
  out.first_drift_epoch = stream.first_drift_epoch;
  out.doc_epoch = stream.doc_epoch;
  return out;
}

Result<VectorizedStream> MakeVectorizedStream(const StreamOptions& options) {
  Result<StreamedCorpus> stream = GenerateStream(options);
  if (!stream.ok()) return stream.status();
  Preprocessor preprocessor;
  return VectorizeStream(stream.value(), preprocessor);
}

}  // namespace p2pdt
