#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "annotate/annotator.h"
#include "annotate/knowledge_base.h"
#include "text/analyzer.h"
#include "text/porter_stemmer.h"

namespace adrec::annotate {
namespace {

class AnnotateTest : public ::testing::Test {
 protected:
  AnnotateTest() : kb_(BuildDemoKnowledgeBase(&analyzer_)) {}

  const Annotation* Find(const std::vector<Annotation>& anns,
                         std::string_view uri_suffix) {
    for (const Annotation& a : anns) {
      if (a.uri.ends_with(uri_suffix)) return &a;
    }
    return nullptr;
  }

  text::Analyzer analyzer_;
  std::unique_ptr<KnowledgeBase> kb_;
};

TEST_F(AnnotateTest, KbRejectsDuplicateUri) {
  Entity a;
  a.uri = "http://x/A";
  a.label = "A";
  auto r1 = kb_->AddEntity(a);
  EXPECT_TRUE(r1.ok());
  a.label = "A2";
  auto r2 = kb_->AddEntity(a);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(AnnotateTest, KbRejectsBadTopicIds) {
  EXPECT_FALSE(kb_->AddSurfaceForm(TopicId(9999), "x y").ok());
  EXPECT_FALSE(kb_->AddContextText(TopicId(9999), "x").ok());
}

TEST_F(AnnotateTest, KbRejectsEmptySurfaceForm) {
  auto id = kb_->FindByUri("http://dbpedia.org/resource/Volleyball");
  ASSERT_TRUE(id.ok());
  // "the" is a stopword, so the phrase analyses to nothing.
  EXPECT_FALSE(kb_->AddSurfaceForm(id.value(), "the").ok());
}

TEST_F(AnnotateTest, FindByUri) {
  auto id = kb_->FindByUri("http://dbpedia.org/resource/Volleyball");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(kb_->entity(id.value()).label, "Volleyball");
  EXPECT_FALSE(kb_->FindByUri("http://nope").ok());
}

TEST_F(AnnotateTest, AnnotatesThePaperExampleTweet) {
  SpotlightAnnotator annotator(kb_.get());
  auto anns = annotator.Annotate(
      "The nation's best volleyball returns tomorrow night. Here's how our "
      "coaches think the CW women's teams stack up.");
  EXPECT_NE(Find(anns, "/Volleyball"), nullptr);
  EXPECT_NE(Find(anns, "/Nation"), nullptr);
  EXPECT_NE(Find(anns, "/The_CW"), nullptr);
  EXPECT_NE(Find(anns, "/Team"), nullptr);
  // Scores are valid confidences.
  for (const Annotation& a : anns) {
    EXPECT_GE(a.score, 0.0);
    EXPECT_LE(a.score, 1.0);
  }
  // Volleyball with strong context support should outscore the generic
  // "nation" sense.
  EXPECT_GT(Find(anns, "/Volleyball")->score, Find(anns, "/Nation")->score);
}

TEST_F(AnnotateTest, MultiWordSurfaceFormLongestMatch) {
  SpotlightAnnotator annotator(kb_.get());
  auto anns = annotator.Annotate("playing beach volleyball at sunset");
  const Annotation* v = Find(anns, "/Volleyball");
  ASSERT_NE(v, nullptr);
  // "beach volleyball" matched as one two-token span.
  EXPECT_EQ(v->token_length, 2u);
}

TEST_F(AnnotateTest, DisambiguationPrefersContextuallySupportedSense) {
  SpotlightAnnotator annotator(kb_.get());
  // Tech context: "apple" should resolve to Apple Inc.
  auto tech = annotator.Annotate("apple launch event new iphone and ipad");
  ASSERT_FALSE(tech.empty());
  EXPECT_NE(Find(tech, "/Apple_Inc."), nullptr);
  EXPECT_EQ(Find(tech, "/Apple"), nullptr);  // fruit sense suppressed

  // Food context: "apple" should resolve to the fruit.
  auto food = annotator.Annotate("baked an apple pie from the orchard harvest");
  ASSERT_FALSE(food.empty());
  EXPECT_NE(Find(food, "/Apple"), nullptr);
  EXPECT_EQ(Find(food, "/Apple_Inc."), nullptr);
}

TEST_F(AnnotateTest, PriorBreaksTiesWithoutContext) {
  SpotlightAnnotator annotator(kb_.get());
  // Bare ambiguous mention with no disambiguating words: sports-field
  // "pitch" has the higher prior (0.6 vs 0.4).
  auto anns = annotator.Annotate("what a pitch");
  ASSERT_EQ(anns.size(), 1u);
  EXPECT_TRUE(anns[0].uri.ends_with("Pitch_(sports_field)"));
}

TEST_F(AnnotateTest, AllSensesModeEmitsBoth) {
  AnnotatorOptions opts;
  opts.best_sense_only = false;
  opts.min_score = 0.0;
  SpotlightAnnotator annotator(kb_.get(), opts);
  auto anns = annotator.Annotate("what a pitch");
  EXPECT_EQ(anns.size(), 2u);
}

TEST_F(AnnotateTest, RepeatedMentionAggregatesToMaxScore) {
  SpotlightAnnotator annotator(kb_.get());
  auto anns = annotator.Annotate("volleyball volleyball volleyball");
  // One annotation despite three mentions.
  int volleyball_count = 0;
  for (const Annotation& a : anns) {
    if (a.uri.ends_with("/Volleyball")) ++volleyball_count;
  }
  EXPECT_EQ(volleyball_count, 1);
}

TEST_F(AnnotateTest, NoFalseAnnotationsOnUnrelatedText) {
  SpotlightAnnotator annotator(kb_.get());
  auto anns = annotator.Annotate("completely unrelated verbiage zzz qqq");
  EXPECT_TRUE(anns.empty());
}

TEST_F(AnnotateTest, EmptyTextYieldsNothing) {
  SpotlightAnnotator annotator(kb_.get());
  EXPECT_TRUE(annotator.Annotate("").empty());
}

TEST_F(AnnotateTest, MinScoreFilters) {
  AnnotatorOptions opts;
  opts.min_score = 0.99;  // practically everything is dropped
  SpotlightAnnotator annotator(kb_.get(), opts);
  auto anns = annotator.Annotate("nation team");
  EXPECT_TRUE(anns.empty());
}

TEST_F(AnnotateTest, StemmedVariantsMatchSurfaceForms) {
  SpotlightAnnotator annotator(kb_.get());
  // "teams" and "team" should both hit the Team entity via stemming.
  EXPECT_NE(Find(annotator.Annotate("our teams won"), "/Team"), nullptr);
  EXPECT_NE(Find(annotator.Annotate("our team won"), "/Team"), nullptr);
}

TEST_F(AnnotateTest, FuzzyMatchingCatchesTypos) {
  AnnotatorOptions opts;
  opts.fuzzy_min_similarity = 0.5;
  SpotlightAnnotator fuzzy(kb_.get(), opts);
  SpotlightAnnotator exact(kb_.get());  // fuzzy off by default
  const auto clean_anns = fuzzy.Annotate("playing volleyball tonight");
  const Annotation* exact_a = Find(clean_anns, "/Volleyball");
  ASSERT_NE(exact_a, nullptr);
  for (const char* typo : {"volleybal", "voleyball", "volleyballl"}) {
    const std::string text = std::string("playing ") + typo + " tonight";
    const auto exact_anns = exact.Annotate(text);
    EXPECT_EQ(Find(exact_anns, "/Volleyball"), nullptr) << typo;
    const auto fuzzy_anns = fuzzy.Annotate(text);
    const Annotation* a = Find(fuzzy_anns, "/Volleyball");
    ASSERT_NE(a, nullptr) << typo;
    // Discounted below the exact-match score.
    EXPECT_LT(a->score, exact_a->score) << typo;
  }
}

// Serving text only looks words up: a stream of novel words must not
// grow the shared vocabulary (engine shards annotate concurrently, and
// clients choose the words).
TEST_F(AnnotateTest, AnnotatingNovelWordsLeavesVocabularyUnchanged) {
  AnnotatorOptions opts;
  opts.fuzzy_min_similarity = 0.5;
  SpotlightAnnotator annotator(kb_.get(), opts);
  const size_t before = analyzer_.vocabulary().size();
  for (int i = 0; i < 50; ++i) {
    annotator.Annotate("zorblax" + std::to_string(i) +
                       " beach volleyball quibbleton flurm" +
                       std::to_string(i));
  }
  EXPECT_EQ(analyzer_.vocabulary().size(), before);
}

// Looking words up instead of interning them changes no result: every
// unseen token keeps its position (so it still splits a multi-token
// surface form) and its own count (so the context cosine's norm is the
// same), and its string reaches the fuzzy fallback.
TEST_F(AnnotateTest, NovelWordsAnnotateAlikeInternedOrNot) {
  AnnotatorOptions fuzzy_opts;
  fuzzy_opts.fuzzy_min_similarity = 0.5;
  const SpotlightAnnotator exact(kb_.get());
  const SpotlightAnnotator fuzzy(kb_.get(), fuzzy_opts);
  const std::vector<std::string> texts = {
      // "beach volleyball" split by an unseen token.
      "playing beach zorblax volleyball at sunset",
      // Repeated novel words beside an ambiguous, context-scored mention.
      "zorblax zorblax apple quibbleton launch zorblax iphone",
      "baked an apple pie flurm flurm orchard harvest",
      // A typo only the fuzzy fallback resolves.
      "playing volleybal tonight with the grommets",
  };
  const auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  const auto expect_same = [&](const std::vector<Annotation>& want,
                               const std::vector<Annotation>& got,
                               const std::string& text) {
    ASSERT_EQ(want.size(), got.size()) << text;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].topic, got[i].topic) << text;
      EXPECT_EQ(want[i].token_begin, got[i].token_begin) << text;
      EXPECT_EQ(want[i].token_length, got[i].token_length) << text;
      EXPECT_EQ(bits(want[i].score), bits(got[i].score)) << text;
    }
  };

  std::vector<std::vector<Annotation>> unseen_exact, unseen_fuzzy;
  for (const std::string& text : texts) {
    unseen_exact.push_back(exact.Annotate(text));
    unseen_fuzzy.push_back(fuzzy.Annotate(text));
  }
  // The unseen token kept its position: only the one-token "volleyball"
  // surface form matched, at token 3.
  const Annotation* split = Find(unseen_exact[0], "/Volleyball");
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->token_begin, 3u);
  EXPECT_EQ(split->token_length, 1u);
  EXPECT_NE(Find(unseen_fuzzy[3], "/Volleyball"), nullptr);

  const size_t before = analyzer_.vocabulary().size();
  for (const std::string& text : texts) analyzer_.Analyze(text);
  ASSERT_GT(analyzer_.vocabulary().size(), before);
  for (size_t t = 0; t < texts.size(); ++t) {
    expect_same(unseen_exact[t], exact.Annotate(texts[t]), texts[t]);
    expect_same(unseen_fuzzy[t], fuzzy.Annotate(texts[t]), texts[t]);
  }
}

TEST_F(AnnotateTest, FuzzyDoesNotFireOnUnrelatedWords) {
  AnnotatorOptions opts;
  opts.fuzzy_min_similarity = 0.5;
  SpotlightAnnotator fuzzy(kb_.get(), opts);
  EXPECT_TRUE(fuzzy.Annotate("completely zzz unrelated qqq").empty());
  // Short words share too few trigrams to cross the threshold.
  EXPECT_EQ(Find(fuzzy.Annotate("vol end"), "/Volleyball"), nullptr);
}

TEST_F(AnnotateTest, FuzzyKbCandidates) {
  auto matches = kb_->FuzzyCandidates(
      text::PorterStem("volleybal"), 0.4);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(kb_->entity(matches[0].topic).label, "Volleyball");
  EXPECT_GT(matches[0].similarity, 0.4);
  EXPECT_LE(matches[0].similarity, 1.0);
  // Exact stem similarity is 1.0.
  auto exact = kb_->FuzzyCandidates(text::PorterStem("volleyball"), 0.9);
  ASSERT_FALSE(exact.empty());
  EXPECT_DOUBLE_EQ(exact[0].similarity, 1.0);
  // Nothing for garbage.
  EXPECT_TRUE(kb_->FuzzyCandidates("zzzzqqq", 0.4).empty());
}

TEST_F(AnnotateTest, OutputSortedByTopicId) {
  SpotlightAnnotator annotator(kb_.get());
  auto anns =
      annotator.Annotate("adidas volleyball coffee pizza marathon concert");
  for (size_t i = 1; i < anns.size(); ++i) {
    EXPECT_LT(anns[i - 1].topic.value, anns[i].topic.value);
  }
  EXPECT_GE(anns.size(), 5u);
}

}  // namespace
}  // namespace adrec::annotate
