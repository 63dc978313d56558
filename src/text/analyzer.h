#ifndef ADREC_TEXT_ANALYZER_H_
#define ADREC_TEXT_ANALYZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace adrec::text {

/// A document analysed against a vocabulary it does not grow
/// (Analyzer::LookUp). Every token keeps its position: a term the
/// vocabulary holds carries its id, and a term it does not hold carries
/// the document-local id `first_unseen + p`, where p is the position of
/// the term's first occurrence, shared by all its repeats. An unseen
/// token therefore still splits multi-token matches and still counts in
/// the document's term frequencies.
struct LookedUpText {
  /// The analysed tokens, in order.
  std::vector<std::string> strings;
  /// One id per token.
  std::vector<TermId> terms;
  /// The vocabulary's size at analysis: ids at or past it are local.
  TermId first_unseen = 0;

  /// The string of any id in `terms`; `vocab` is the one analysed against.
  const std::string& TermOf(TermId id, const Vocabulary& vocab) const {
    return id < first_unseen ? vocab.TermOf(id) : strings[id - first_unseen];
  }
};

/// Analyzer configuration.
struct AnalyzerOptions {
  TokenizerOptions tokenizer;
  bool remove_stopwords = true;
  bool stem = true;
};

/// The full lexical pipeline: tokenize -> stopword filter -> Porter stem ->
/// intern. Owns the vocabulary so repeated analyses share term ids.
class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions options = {});

  /// Analyzes `input` into interned term ids (with duplicates, in order).
  std::vector<TermId> Analyze(std::string_view input);

  /// Like Analyze but read-only: unseen terms map to kInvalidTerm and are
  /// dropped. Use for query-time analysis against a frozen vocabulary.
  std::vector<TermId> AnalyzeReadOnly(std::string_view input) const;

  /// Like Analyze but read-only, keeping unseen terms in place under
  /// document-local ids (LookedUpText). Safe to call from several threads
  /// at once while nothing interns.
  LookedUpText LookUp(std::string_view input) const;

  /// Analyzes and returns the processed surface strings (for debugging and
  /// the annotator, which matches on stems).
  std::vector<std::string> AnalyzeToStrings(std::string_view input) const;

  Vocabulary& vocabulary() { return vocab_; }
  const Vocabulary& vocabulary() const { return vocab_; }

 private:
  AnalyzerOptions options_;
  Tokenizer tokenizer_;
  StopwordSet stopwords_;
  Vocabulary vocab_;
};

}  // namespace adrec::text

#endif  // ADREC_TEXT_ANALYZER_H_
