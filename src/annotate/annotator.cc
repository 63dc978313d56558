#include "annotate/annotator.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "text/tfidf.h"

namespace adrec::annotate {

SpotlightAnnotator::SpotlightAnnotator(const KnowledgeBase* kb,
                                       AnnotatorOptions options)
    : kb_(kb), options_(options) {
  ADREC_CHECK(kb != nullptr);
}

std::vector<Annotation> SpotlightAnnotator::Annotate(
    std::string_view text) const {
  return AnnotateTerms(kb_->analyzer()->LookUp(text));
}

std::vector<Annotation> SpotlightAnnotator::AnnotateTerms(
    const text::LookedUpText& doc_terms) const {
  const std::vector<text::TermId>& terms = doc_terms.terms;
  // Document vector for context similarity (raw term frequencies are
  // sufficient here; both sides are L2-normalised by Cosine()). Unseen
  // terms count under their local ids: entity contexts never hold those,
  // and an integer-count norm does not depend on which ids carry it.
  const text::SparseVector doc = text::TfIdfModel::TermFrequency(terms);

  // Scores one candidate sense of a mention span; `discount` scales the
  // final confidence (1.0 for exact matches, trigram similarity for
  // fuzzy ones).
  auto score_candidate = [&](TopicId cand, size_t begin, size_t len,
                             double discount) {
    const Entity& e = kb_->entity(cand);
    // Context cosine; entities without context fall back to prior only.
    double ctx = e.context.empty() ? 0.0 : e.context.Cosine(doc);
    if (ctx < 0.0) ctx = 0.0;
    const double w = e.context.empty() ? 0.0 : options_.context_weight;
    const double score = ((1.0 - w) * e.prior + w * ctx) * discount;
    Annotation a;
    a.topic = cand;
    a.uri = e.uri;
    a.score = std::min(1.0, std::max(0.0, score));
    a.token_begin = begin;
    a.token_length = len;
    return a;
  };

  std::vector<Annotation> spans;
  // Emits the best (or all) senses from scored candidate annotations.
  auto emit = [&](std::vector<Annotation> candidates) {
    if (candidates.empty()) return;
    if (options_.best_sense_only) {
      const Annotation* best = &candidates[0];
      for (const Annotation& a : candidates) {
        if (a.score > best->score) best = &a;
      }
      if (best->score >= options_.min_score) spans.push_back(*best);
    } else {
      for (Annotation& a : candidates) {
        if (a.score >= options_.min_score) spans.push_back(std::move(a));
      }
    }
  };

  size_t i = 0;
  while (i < terms.size()) {
    // Leftmost-longest match in the surface trie starting at i.
    KnowledgeBase::NodeId node = 0;
    size_t best_len = 0;
    KnowledgeBase::NodeId best_node = KnowledgeBase::kNoNode;
    for (size_t j = i; j < terms.size(); ++j) {
      node = kb_->Step(node, terms[j]);
      if (node == KnowledgeBase::kNoNode) break;
      if (!kb_->CandidatesAt(node).empty()) {
        best_len = j - i + 1;
        best_node = node;
      }
    }
    if (best_node == KnowledgeBase::kNoNode) {
      // Typo fallback: fuzzy single-token match.
      if (options_.fuzzy_min_similarity > 0.0) {
        const std::string& term =
            doc_terms.TermOf(terms[i], kb_->analyzer()->vocabulary());
        std::vector<Annotation> fuzzy;
        for (const KnowledgeBase::FuzzyMatch& m : kb_->FuzzyCandidates(
                 term, options_.fuzzy_min_similarity)) {
          fuzzy.push_back(score_candidate(m.topic, i, 1, m.similarity));
        }
        emit(std::move(fuzzy));
      }
      ++i;
      continue;
    }
    // Disambiguate the candidates of the matched span.
    std::vector<Annotation> scored;
    for (TopicId cand : kb_->CandidatesAt(best_node)) {
      scored.push_back(score_candidate(cand, i, best_len, 1.0));
    }
    emit(std::move(scored));
    i += best_len;
  }

  // Aggregate per entity: max score across mentions.
  std::unordered_map<uint32_t, size_t> first_index;
  std::vector<Annotation> out;
  for (Annotation& a : spans) {
    auto it = first_index.find(a.topic.value);
    if (it == first_index.end()) {
      first_index.emplace(a.topic.value, out.size());
      out.push_back(std::move(a));
    } else if (a.score > out[it->second].score) {
      out[it->second].score = a.score;
    }
  }
  // Deterministic order: by topic id.
  std::sort(out.begin(), out.end(), [](const Annotation& a, const Annotation& b) {
    return a.topic.value < b.topic.value;
  });
  return out;
}

}  // namespace adrec::annotate
