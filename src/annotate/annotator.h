#ifndef ADREC_ANNOTATE_ANNOTATOR_H_
#define ADREC_ANNOTATE_ANNOTATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "annotate/knowledge_base.h"
#include "common/id_types.h"
#include "text/analyzer.h"
#include "text/sparse_vector.h"

namespace adrec::annotate {

/// One resolved annotation: the <URI, score> pair the paper's semantic
/// representation step attaches to every tweet.
struct Annotation {
  TopicId topic;
  std::string uri;
  /// Disambiguation confidence in [0,1]: a blend of the entity's
  /// commonness prior and the cosine similarity between the entity's
  /// context profile and the document.
  double score = 0.0;
  /// Token span of the mention in the analyzed document.
  size_t token_begin = 0;
  size_t token_length = 0;
};

/// Annotator configuration.
struct AnnotatorOptions {
  /// Weight of context similarity vs. prior in the final score:
  /// score = (1 - w) * prior + w * context_cosine.
  double context_weight = 0.6;
  /// Annotations scoring below this are dropped.
  double min_score = 0.05;
  /// When one surface span has multiple candidate senses, keep only the
  /// best-scoring sense (Spotlight behaviour). When false, all senses are
  /// emitted (useful for diagnostics).
  bool best_sense_only = true;
  /// Typo tolerance: tokens that match no surface form exactly are fuzzy-
  /// matched against single-token surface stems by character-trigram
  /// Jaccard similarity; matches at or above this threshold are treated
  /// as mentions with their scores discounted by the similarity.
  /// 0 disables fuzzy matching (the default: exact-match Spotlight
  /// behaviour). 0.5 is a reasonable tolerance for tweet typos.
  double fuzzy_min_similarity = 0.0;
};

/// The hand-built DBpedia-Spotlight stand-in. Pipeline per document:
///  1. lexical analysis (tokenize/stop/stem) via the KB's analyzer;
///  2. mention detection: leftmost-longest dictionary match against the
///     KB's surface-form trie;
///  3. disambiguation: score every candidate sense by prior and context
///     cosine; keep the best sense per mention;
///  4. aggregation: one Annotation per distinct entity (max score).
class SpotlightAnnotator {
 public:
  /// The annotator borrows `kb` (and through it the analyzer); both must
  /// outlive the annotator.
  explicit SpotlightAnnotator(const KnowledgeBase* kb,
                              AnnotatorOptions options = {});

  /// Annotates free text. Words are looked up in the analyzer's
  /// vocabulary, never interned (text::Analyzer::LookUp): the KB is
  /// read-only after it loads, so engine shards annotate concurrently,
  /// and the vocabulary does not grow with what clients send.
  std::vector<Annotation> Annotate(std::string_view text) const;

  /// Annotates a document already looked up against the KB's analyzer.
  std::vector<Annotation> AnnotateTerms(
      const text::LookedUpText& doc_terms) const;

  const AnnotatorOptions& options() const { return options_; }

 private:
  const KnowledgeBase* kb_;  // not owned
  AnnotatorOptions options_;
};

}  // namespace adrec::annotate

#endif  // ADREC_ANNOTATE_ANNOTATOR_H_
