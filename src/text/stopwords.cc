#include "text/stopwords.h"

#include "common/string_util.h"

namespace p2pdt {

const std::vector<std::string>& StopWordFilter::DefaultEnglishStopWords() {
  static const std::vector<std::string> kList = {
      "a",       "about",   "above",   "after",    "again",   "against",
      "all",     "am",      "an",      "and",      "any",     "are",
      "arent",   "as",      "at",      "be",       "because", "been",
      "before",  "being",   "below",   "between",  "both",    "but",
      "by",      "cant",    "cannot",  "could",    "couldnt", "did",
      "didnt",   "do",      "does",    "doesnt",   "doing",   "dont",
      "down",    "during",  "each",    "etc",      "few",     "for",
      "from",    "further", "had",     "hadnt",    "has",     "hasnt",
      "have",    "havent",  "having",  "he",       "hed",     "hell",
      "hes",     "her",     "here",    "heres",    "hers",    "herself",
      "him",     "himself", "his",     "how",      "hows",    "i",
      "id",      "ill",     "im",      "ive",      "if",      "in",
      "into",    "is",      "isnt",    "it",       "its",     "itself",
      "lets",    "me",      "more",    "most",     "mustnt",  "my",
      "myself",  "no",      "nor",     "not",      "of",      "off",
      "on",      "once",    "only",    "or",       "other",   "ought",
      "our",     "ours",    "ourselves", "out",    "over",    "own",
      "same",    "shant",   "she",     "shed",     "shell",   "shes",
      "should",  "shouldnt", "so",     "some",     "such",    "than",
      "that",    "thats",   "the",     "their",    "theirs",  "them",
      "themselves", "then", "there",   "theres",   "these",   "they",
      "theyd",   "theyll",  "theyre",  "theyve",   "this",    "those",
      "through", "to",      "too",     "under",    "until",   "up",
      "very",    "was",     "wasnt",   "we",       "wed",     "well",
      "were",    "weve",    "werent",  "what",     "whats",   "when",
      "whens",   "where",   "wheres",  "which",    "while",   "who",
      "whos",    "whom",    "why",     "whys",     "with",    "wont",
      "would",   "wouldnt", "you",     "youd",     "youll",   "youre",
      "youve",   "your",    "yours",   "yourself", "yourselves",
  };
  return kList;
}

StopWordFilter::StopWordFilter()
    : StopWordFilter(DefaultEnglishStopWords()) {}

StopWordFilter::StopWordFilter(std::vector<std::string> stop_words) {
  for (auto& w : stop_words) stop_words_.insert(std::move(w));
}

void StopWordFilter::AddSensitiveWord(std::string_view word) {
  sensitive_words_.insert(ToLower(word));
}

void StopWordFilter::AddSensitiveWords(const std::vector<std::string>& words) {
  for (const auto& w : words) AddSensitiveWord(w);
}

bool StopWordFilter::IsFiltered(std::string_view token) const {
  return IsStopWord(token) || IsSensitive(token);
}

bool StopWordFilter::IsStopWord(std::string_view token) const {
  return stop_words_.contains(token);
}

bool StopWordFilter::IsSensitive(std::string_view token) const {
  return sensitive_words_.contains(token);
}

std::vector<std::string> StopWordFilter::Filter(
    const std::vector<std::string>& tokens) const {
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) {
    if (!IsFiltered(t)) out.push_back(t);
  }
  return out;
}

}  // namespace p2pdt
