#include "text/porter_stemmer.h"

namespace adrec::text {

namespace {

// Working buffer view over the word being stemmed; `end` is the logical
// length (suffixes are dropped by shrinking it).
struct Stem {
  std::string buf;
  size_t end;  // one past the last valid char

  explicit Stem(std::string_view w) : buf(w), end(w.size()) {}

  char at(size_t i) const { return buf[i]; }
  size_t size() const { return end; }

  bool IsConsonant(size_t i) const {
    switch (buf[i]) {
      case 'a':
      case 'e':
      case 'i':
      case 'o':
      case 'u':
        return false;
      case 'y':
        return i == 0 ? true : !IsConsonant(i - 1);
      default:
        return true;
    }
  }

  // Measure m of the stem buf[0..k): the number of VC sequences in the
  // [C](VC)^m[V] decomposition.
  int Measure(size_t k) const {
    int m = 0;
    size_t i = 0;
    // Skip initial consonants.
    while (i < k && IsConsonant(i)) ++i;
    for (;;) {
      // Skip vowels.
      while (i < k && !IsConsonant(i)) ++i;
      if (i >= k) return m;
      ++m;
      // Skip consonants.
      while (i < k && IsConsonant(i)) ++i;
      if (i >= k) return m;
    }
  }

  // True iff buf[0..k) contains a vowel.
  bool HasVowel(size_t k) const {
    for (size_t i = 0; i < k; ++i) {
      if (!IsConsonant(i)) return true;
    }
    return false;
  }

  // True iff the word ends (at `end`) with a double consonant.
  bool EndsDoubleConsonant() const {
    if (end < 2) return false;
    return buf[end - 1] == buf[end - 2] && IsConsonant(end - 1);
  }

  // True iff buf[0..k) ends consonant-vowel-consonant where the final
  // consonant is not w, x or y ("*o" condition).
  bool EndsCvc(size_t k) const {
    if (k < 3) return false;
    if (!IsConsonant(k - 1) || IsConsonant(k - 2) || !IsConsonant(k - 3)) {
      return false;
    }
    const char c = buf[k - 1];
    return c != 'w' && c != 'x' && c != 'y';
  }

  bool EndsWith(std::string_view suffix) const {
    if (suffix.size() > end) return false;
    return std::string_view(buf).substr(end - suffix.size(),
                                        suffix.size()) == suffix;
  }

  // Replaces the current suffix `suffix_len` chars long with `repl`.
  void SetSuffix(size_t suffix_len, std::string_view repl) {
    buf.resize(end - suffix_len);
    buf.append(repl);
    end = buf.size();
  }

  // If the word ends with `suffix` and the stem before it has measure > m_gt,
  // replace the suffix with `repl` and return true.
  bool ReplaceIfMeasure(std::string_view suffix, std::string_view repl,
                        int m_gt) {
    if (!EndsWith(suffix)) return false;
    const size_t stem_len = end - suffix.size();
    if (Measure(stem_len) > m_gt) {
      SetSuffix(suffix.size(), repl);
      return true;
    }
    return true;  // matched the suffix; stop trying alternatives
  }

  std::string Str() const { return buf.substr(0, end); }
};

void Step1a(Stem& s) {
  if (s.EndsWith("sses")) {
    s.SetSuffix(4, "ss");
  } else if (s.EndsWith("ies")) {
    s.SetSuffix(3, "i");
  } else if (s.EndsWith("ss")) {
    // no-op
  } else if (s.EndsWith("s")) {
    s.SetSuffix(1, "");
  }
}

// Shared tail of step 1b: after removing "ed"/"ing".
void Step1bTail(Stem& s) {
  if (s.EndsWith("at") || s.EndsWith("bl") || s.EndsWith("iz")) {
    s.SetSuffix(0, "e");
  } else if (s.EndsDoubleConsonant()) {
    const char c = s.at(s.size() - 1);
    if (c != 'l' && c != 's' && c != 'z') s.SetSuffix(1, "");
  } else if (s.Measure(s.size()) == 1 && s.EndsCvc(s.size())) {
    s.SetSuffix(0, "e");
  }
}

void Step1b(Stem& s) {
  if (s.EndsWith("eed")) {
    if (s.Measure(s.size() - 3) > 0) s.SetSuffix(3, "ee");
  } else if (s.EndsWith("ed")) {
    if (s.HasVowel(s.size() - 2)) {
      s.SetSuffix(2, "");
      Step1bTail(s);
    }
  } else if (s.EndsWith("ing")) {
    if (s.HasVowel(s.size() - 3)) {
      s.SetSuffix(3, "");
      Step1bTail(s);
    }
  }
}

void Step1c(Stem& s) {
  if (s.EndsWith("y") && s.HasVowel(s.size() - 1)) {
    s.SetSuffix(1, "i");
  }
}

void Step2(Stem& s) {
  static constexpr struct {
    const char* suffix;
    const char* repl;
  } kRules[] = {
      {"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
      {"anci", "ance"},   {"izer", "ize"},    {"abli", "able"},
      {"alli", "al"},     {"entli", "ent"},   {"eli", "e"},
      {"ousli", "ous"},   {"ization", "ize"}, {"ation", "ate"},
      {"ator", "ate"},    {"alism", "al"},    {"iveness", "ive"},
      {"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
      {"iviti", "ive"},   {"biliti", "ble"},
  };
  for (const auto& rule : kRules) {
    if (s.EndsWith(rule.suffix)) {
      s.ReplaceIfMeasure(rule.suffix, rule.repl, 0);
      return;
    }
  }
}

void Step3(Stem& s) {
  static constexpr struct {
    const char* suffix;
    const char* repl;
  } kRules[] = {
      {"icate", "ic"}, {"ative", ""},  {"alize", "al"}, {"iciti", "ic"},
      {"ical", "ic"},  {"ful", ""},    {"ness", ""},
  };
  for (const auto& rule : kRules) {
    if (s.EndsWith(rule.suffix)) {
      s.ReplaceIfMeasure(rule.suffix, rule.repl, 0);
      return;
    }
  }
}

void Step4(Stem& s) {
  static constexpr const char* kSuffixes[] = {
      "al",   "ance", "ence", "er",   "ic",   "able", "ible", "ant",
      "ement", "ment", "ent",  "ou",   "ism",  "ate",  "iti",  "ous",
      "ive",  "ize",
  };
  for (const char* suffix : kSuffixes) {
    if (s.EndsWith(suffix)) {
      const size_t stem_len = s.size() - std::string_view(suffix).size();
      if (s.Measure(stem_len) > 1) s.SetSuffix(std::string_view(suffix).size(), "");
      return;
    }
  }
  // "(m>1 and (*S or *T)) ION ->": the special ion rule.
  if (s.EndsWith("ion")) {
    const size_t stem_len = s.size() - 3;
    if (stem_len > 0 &&
        (s.at(stem_len - 1) == 's' || s.at(stem_len - 1) == 't') &&
        s.Measure(stem_len) > 1) {
      s.SetSuffix(3, "");
    }
  }
}

void Step5a(Stem& s) {
  if (s.EndsWith("e")) {
    const size_t stem_len = s.size() - 1;
    const int m = s.Measure(stem_len);
    if (m > 1 || (m == 1 && !s.EndsCvc(stem_len))) {
      s.SetSuffix(1, "");
    }
  }
}

void Step5b(Stem& s) {
  if (s.size() >= 2 && s.at(s.size() - 1) == 'l' &&
      s.EndsDoubleConsonant() && s.Measure(s.size()) > 1) {
    s.SetSuffix(1, "");
  }
}

}  // namespace

std::string PorterStem(std::string_view word) {
  if (word.size() <= 2) return std::string(word);
  Stem s(word);
  Step1a(s);
  Step1b(s);
  Step1c(s);
  Step2(s);
  Step3(s);
  Step4(s);
  Step5a(s);
  Step5b(s);
  return s.Str();
}

}  // namespace adrec::text
