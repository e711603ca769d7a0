#include "text/lexicon.h"

namespace p2pdt {

Lexicon Lexicon::Hashed(uint32_t dimensions) {
  Lexicon lex;
  lex.hashed_ = true;
  lex.dimensions_ = dimensions;
  return lex;
}

uint32_t Lexicon::HashWord(std::string_view word) {
  uint32_t h = 2166136261u;  // FNV offset basis
  for (char c : word) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;  // FNV prime
  }
  return h;
}

uint32_t Lexicon::GetOrAddId(std::string_view word) {
  auto it = word_to_id_.find(word);
  if (it != word_to_id_.end()) return it->second;
  if (hashed_) {
    uint32_t id = HashWord(word) % dimensions_;
    it = word_to_id_.emplace(std::string(word), id).first;
    // First writer wins: a colliding later word keeps its id but is not
    // reversible.
    hash_to_word_.try_emplace(id, it->first);
    return id;
  }
  uint32_t id = static_cast<uint32_t>(id_to_word_.size());
  id_to_word_.emplace_back(word);
  word_to_id_.emplace(id_to_word_.back(), id);
  return id;
}

Result<uint32_t> Lexicon::GetId(std::string_view word) const {
  if (hashed_) return HashWord(word) % dimensions_;
  auto it = word_to_id_.find(word);
  if (it == word_to_id_.end()) {
    return Status::NotFound("word not in lexicon: " + std::string(word));
  }
  return it->second;
}

Result<std::string> Lexicon::GetWord(uint32_t id) const {
  if (hashed_) {
    auto it = hash_to_word_.find(id);
    if (it == hash_to_word_.end()) {
      return Status::NotFound("id " + std::to_string(id) +
                              " not reversible in hashed lexicon");
    }
    return it->second;
  }
  if (id >= id_to_word_.size()) {
    return Status::NotFound("id " + std::to_string(id) + " out of range");
  }
  return id_to_word_[id];
}

}  // namespace p2pdt
