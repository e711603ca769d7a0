#include "text/porter_stemmer.h"

namespace p2pdt {

namespace {

// Working buffer for one word, exposing the predicates of Porter's paper.
// `b` holds the word; `k` is the index of the last character; `j` marks the
// end of the stem for the rule currently being evaluated. Indices are signed
// because `j` is legitimately -1 when a candidate suffix spans the whole
// word (e.g. Ends("ing") on "ing"), exactly as in Porter's reference C code.
class Buffer {
 public:
  explicit Buffer(std::string_view word)
      : b_(word), k_(static_cast<int>(word.size()) - 1) {}

  std::string str() const { return b_.substr(0, k_ + 1); }

  // True when b[i] is a consonant (Porter's cons(i)): y is a consonant when
  // preceded by a vowel or at position 0.
  bool Cons(int i) const {
    switch (b_[i]) {
      case 'a':
      case 'e':
      case 'i':
      case 'o':
      case 'u':
        return false;
      case 'y':
        return (i == 0) ? true : !Cons(i - 1);
      default:
        return true;
    }
  }

  // Porter's m(): the number of VC sequences in b[0..j].
  int Measure() const {
    int n = 0;
    int i = 0;
    const int end = j_ + 1;
    for (;;) {
      if (i >= end) return n;
      if (!Cons(i)) break;
      ++i;
    }
    ++i;
    for (;;) {
      for (;;) {
        if (i >= end) return n;
        if (Cons(i)) break;
        ++i;
      }
      ++i;
      ++n;
      for (;;) {
        if (i >= end) return n;
        if (!Cons(i)) break;
        ++i;
      }
      ++i;
    }
  }

  // *v* — the stem b[0..j] contains a vowel.
  bool VowelInStem() const {
    for (int i = 0; i <= j_; ++i) {
      if (!Cons(i)) return true;
    }
    return false;
  }

  // *d — b[i-1..i] is a double consonant.
  bool DoubleC(int i) const {
    if (i < 1) return false;
    if (b_[i] != b_[i - 1]) return false;
    return Cons(i);
  }

  // *o — b[i-2..i] is consonant-vowel-consonant where the final consonant is
  // not w, x or y. Used to restore an e at the end of short words.
  bool Cvc(int i) const {
    if (i < 2 || !Cons(i) || Cons(i - 1) || !Cons(i - 2)) return false;
    char ch = b_[i];
    return ch != 'w' && ch != 'x' && ch != 'y';
  }

  // True when the word ends with `s`; sets j to the end of the stem.
  bool Ends(std::string_view s) {
    const int len = static_cast<int>(s.size());
    if (len > k_ + 1) return false;
    if (b_.compare(k_ + 1 - len, len, s) != 0) return false;
    j_ = k_ - len;
    return true;
  }

  // Replaces the suffix (b[j+1..k]) with `s` and adjusts k.
  void SetTo(std::string_view s) {
    b_.replace(j_ + 1, k_ - j_, s);
    k_ = j_ + static_cast<int>(s.size());
  }

  // Conditional replacement: applies SetTo when m > 0.
  void R(std::string_view s) {
    if (Measure() > 0) SetTo(s);
  }

  char At(int i) const { return b_[i]; }
  int k() const { return k_; }
  int j() const { return j_; }
  void TruncateOne() { --k_; }
  void set_j_to_k() { j_ = k_; }

 private:
  std::string b_;
  int k_;
  int j_ = 0;
};

// Step 1a: plurals. caresses -> caress, ponies -> poni, cats -> cat.
void Step1a(Buffer& b) {
  if (b.At(b.k()) == 's') {
    if (b.Ends("sses")) {
      b.SetTo("ss");
    } else if (b.Ends("ies")) {
      b.SetTo("i");
    } else if (b.k() >= 1 && b.At(b.k() - 1) != 's') {
      b.TruncateOne();
    }
  }
}

// Step 1b: -eed, -ed, -ing. feed -> feed, agreed -> agree, plastered ->
// plaster, motoring -> motor.
void Step1b(Buffer& b) {
  bool fired = false;
  if (b.Ends("eed")) {
    if (b.Measure() > 0) b.SetTo("ee");
  } else if (b.Ends("ed")) {
    if (b.VowelInStem()) {
      b.SetTo("");
      fired = true;
    }
  } else if (b.Ends("ing")) {
    if (b.VowelInStem()) {
      b.SetTo("");
      fired = true;
    }
  }
  if (!fired) return;
  // Cleanup after removing -ed / -ing.
  if (b.Ends("at")) {
    b.SetTo("ate");
  } else if (b.Ends("bl")) {
    b.SetTo("ble");
  } else if (b.Ends("iz")) {
    b.SetTo("ize");
  } else if (b.DoubleC(b.k())) {
    char ch = b.At(b.k());
    if (ch != 'l' && ch != 's' && ch != 'z') b.TruncateOne();
  } else {
    b.set_j_to_k();
    if (b.Measure() == 1 && b.Cvc(b.k())) b.SetTo("e");
  }
}

// Step 1c: y -> i when there is another vowel in the stem.
void Step1c(Buffer& b) {
  if (b.Ends("y") && b.VowelInStem()) b.SetTo("i");
}

// Step 2: double/triple suffixes mapped to single ones when m > 0.
void Step2(Buffer& b) {
  if (b.k() < 1) return;
  switch (b.At(b.k() - 1)) {
    case 'a':
      if (b.Ends("ational")) { b.R("ate"); return; }
      if (b.Ends("tional")) { b.R("tion"); return; }
      break;
    case 'c':
      if (b.Ends("enci")) { b.R("ence"); return; }
      if (b.Ends("anci")) { b.R("ance"); return; }
      break;
    case 'e':
      if (b.Ends("izer")) { b.R("ize"); return; }
      break;
    case 'l':
      // Porter's published improvement: -abli via "bli" -> "ble".
      if (b.Ends("bli")) { b.R("ble"); return; }
      if (b.Ends("alli")) { b.R("al"); return; }
      if (b.Ends("entli")) { b.R("ent"); return; }
      if (b.Ends("eli")) { b.R("e"); return; }
      if (b.Ends("ousli")) { b.R("ous"); return; }
      break;
    case 'o':
      if (b.Ends("ization")) { b.R("ize"); return; }
      if (b.Ends("ation")) { b.R("ate"); return; }
      if (b.Ends("ator")) { b.R("ate"); return; }
      break;
    case 's':
      if (b.Ends("alism")) { b.R("al"); return; }
      if (b.Ends("iveness")) { b.R("ive"); return; }
      if (b.Ends("fulness")) { b.R("ful"); return; }
      if (b.Ends("ousness")) { b.R("ous"); return; }
      break;
    case 't':
      if (b.Ends("aliti")) { b.R("al"); return; }
      if (b.Ends("iviti")) { b.R("ive"); return; }
      if (b.Ends("biliti")) { b.R("ble"); return; }
      break;
    case 'g':
      // Porter's published improvement: -logi -> -log.
      if (b.Ends("logi")) { b.R("log"); return; }
      break;
    default:
      break;
  }
}

// Step 3: -icate, -ative, etc.
void Step3(Buffer& b) {
  switch (b.At(b.k())) {
    case 'e':
      if (b.Ends("icate")) { b.R("ic"); return; }
      if (b.Ends("ative")) { b.R(""); return; }
      if (b.Ends("alize")) { b.R("al"); return; }
      break;
    case 'i':
      if (b.Ends("iciti")) { b.R("ic"); return; }
      break;
    case 'l':
      if (b.Ends("ical")) { b.R("ic"); return; }
      if (b.Ends("ful")) { b.R(""); return; }
      break;
    case 's':
      if (b.Ends("ness")) { b.R(""); return; }
      break;
    default:
      break;
  }
}

// Step 4: strip -ant, -ence, ... when m > 1.
void Step4(Buffer& b) {
  if (b.k() < 1) return;
  switch (b.At(b.k() - 1)) {
    case 'a':
      if (b.Ends("al")) break;
      return;
    case 'c':
      if (b.Ends("ance")) break;
      if (b.Ends("ence")) break;
      return;
    case 'e':
      if (b.Ends("er")) break;
      return;
    case 'i':
      if (b.Ends("ic")) break;
      return;
    case 'l':
      if (b.Ends("able")) break;
      if (b.Ends("ible")) break;
      return;
    case 'n':
      if (b.Ends("ant")) break;
      if (b.Ends("ement")) break;
      if (b.Ends("ment")) break;
      if (b.Ends("ent")) break;
      return;
    case 'o':
      // -ion is only removed after s or t.
      if (b.Ends("ion") && b.j() >= 0 &&
          (b.At(b.j()) == 's' || b.At(b.j()) == 't')) {
        break;
      }
      if (b.Ends("ou")) break;
      return;
    case 's':
      if (b.Ends("ism")) break;
      return;
    case 't':
      if (b.Ends("ate")) break;
      if (b.Ends("iti")) break;
      return;
    case 'u':
      if (b.Ends("ous")) break;
      return;
    case 'v':
      if (b.Ends("ive")) break;
      return;
    case 'z':
      if (b.Ends("ize")) break;
      return;
    default:
      return;
  }
  if (b.Measure() > 1) b.SetTo("");
}

// Step 5a: remove a final -e when m > 1 (or m == 1 and not *o).
// Step 5b: -ll -> -l when m > 1.
void Step5(Buffer& b) {
  b.set_j_to_k();
  if (b.At(b.k()) == 'e') {
    int m = b.Measure();
    if (m > 1 || (m == 1 && !b.Cvc(b.k() - 1))) b.TruncateOne();
  }
  b.set_j_to_k();
  if (b.At(b.k()) == 'l' && b.DoubleC(b.k()) && b.Measure() > 1) {
    b.TruncateOne();
  }
}

bool AllLowerAlpha(std::string_view word) {
  for (char c : word) {
    if (c < 'a' || c > 'z') return false;
  }
  return true;
}

}  // namespace

std::string PorterStemmer::Stem(std::string_view word) const {
  // Words of length <= 2 and non-alphabetic tokens are left untouched, as in
  // the reference implementation.
  if (word.size() <= 2 || !AllLowerAlpha(word)) return std::string(word);
  Buffer b(word);
  Step1a(b);
  Step1b(b);
  Step1c(b);
  Step2(b);
  Step3(b);
  Step4(b);
  Step5(b);
  return b.str();
}

}  // namespace p2pdt
