#include "text/analyzer.h"

namespace adrec::text {

Analyzer::Analyzer(AnalyzerOptions options)
    : options_(options),
      tokenizer_(options.tokenizer),
      stopwords_(options.remove_stopwords ? StopwordSet::English()
                                          : StopwordSet()) {}

std::vector<std::string> Analyzer::AnalyzeToStrings(
    std::string_view input) const {
  std::vector<std::string> out;
  for (const Token& tok : tokenizer_.Tokenize(input)) {
    if (options_.remove_stopwords && stopwords_.Contains(tok.text)) continue;
    std::string term = tok.text;
    // Strip possessive suffixes before stemming ("nation's" -> "nation").
    if (term.size() > 2 && term.ends_with("'s")) {
      term.resize(term.size() - 2);
    } else if (term.size() > 1 && term.back() == '\'') {
      term.pop_back();
    }
    out.push_back(options_.stem ? PorterStem(term) : term);
  }
  return out;
}

std::vector<TermId> Analyzer::Analyze(std::string_view input) {
  std::vector<TermId> out;
  for (const std::string& term : AnalyzeToStrings(input)) {
    out.push_back(vocab_.Intern(term));
  }
  return out;
}

std::vector<TermId> Analyzer::AnalyzeReadOnly(std::string_view input) const {
  std::vector<TermId> out;
  for (const std::string& term : AnalyzeToStrings(input)) {
    const TermId id = vocab_.Lookup(term);
    if (id != kInvalidTerm) out.push_back(id);
  }
  return out;
}

LookedUpText Analyzer::LookUp(std::string_view input) const {
  LookedUpText out;
  out.strings = AnalyzeToStrings(input);
  out.first_unseen = static_cast<TermId>(vocab_.size());
  out.terms.reserve(out.strings.size());
  for (size_t p = 0; p < out.strings.size(); ++p) {
    TermId id = vocab_.Lookup(out.strings[p]);
    if (id == kInvalidTerm) {
      id = out.first_unseen + static_cast<TermId>(p);
      for (size_t q = 0; q < p; ++q) {
        if (out.terms[q] >= out.first_unseen &&
            out.strings[q] == out.strings[p]) {
          id = out.terms[q];  // a repeat: the first occurrence's id
          break;
        }
      }
    }
    out.terms.push_back(id);
  }
  return out;
}

}  // namespace adrec::text
