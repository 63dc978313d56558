#include "index/ad_index.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"

namespace adrec::index {
namespace {

text::SparseVector Vec(std::vector<text::SparseEntry> entries) {
  return text::SparseVector::FromUnsorted(std::move(entries));
}

AdQuery Query(text::SparseVector topics, size_t k = 10) {
  AdQuery q;
  q.topics = std::move(topics);
  q.k = k;
  return q;
}

TEST(AdIndexTest, InsertAndTopKBasic) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  ASSERT_TRUE(idx.Insert(AdId(2), Vec({{0, 0.5}, {1, 0.5}}), {}, {}).ok());
  ASSERT_TRUE(idx.Insert(AdId(3), Vec({{1, 1.0}}), {}, {}).ok());
  EXPECT_EQ(idx.size(), 3u);

  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 2u);  // ad 3 has zero score and must not appear
  EXPECT_EQ(top[0].ad, AdId(1));
  EXPECT_DOUBLE_EQ(top[0].score, 1.0);
  EXPECT_EQ(top[1].ad, AdId(2));
  EXPECT_DOUBLE_EQ(top[1].score, 0.5);
}

TEST(AdIndexTest, DuplicateInsertRejected) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  EXPECT_EQ(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(AdIndexTest, KLimitsResultCount) {
  AdIndex idx;
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        idx.Insert(AdId(i), Vec({{0, 1.0 / (i + 1)}}), {}, {}).ok());
  }
  auto top = idx.TopK(Query(Vec({{0, 1.0}}), 5));
  ASSERT_EQ(top.size(), 5u);
  // Highest weight (i=0) first.
  EXPECT_EQ(top[0].ad, AdId(0));
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(AdIndexTest, BidScalesScores) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 0.5}}), {}, {}, /*bid=*/4.0).ok());
  ASSERT_TRUE(idx.Insert(AdId(2), Vec({{0, 1.0}}), {}, {}, /*bid=*/1.0).ok());
  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ad, AdId(1));  // 0.5*4 = 2 beats 1.0
  EXPECT_DOUBLE_EQ(top[0].score, 2.0);
}

TEST(AdIndexTest, LocationFilter) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {LocationId(5)}, {}).ok());
  ASSERT_TRUE(idx.Insert(AdId(2), Vec({{0, 0.9}}), {}, {}).ok());  // anywhere
  AdQuery q = Query(Vec({{0, 1.0}}));
  q.location = LocationId(7);
  auto top = idx.TopK(q);
  ASSERT_EQ(top.size(), 1u);  // ad 1 targets only location 5
  EXPECT_EQ(top[0].ad, AdId(2));
  q.location = LocationId(5);
  EXPECT_EQ(idx.TopK(q).size(), 2u);
  // No filter matches everything.
  EXPECT_EQ(idx.TopK(Query(Vec({{0, 1.0}}))).size(), 2u);
}

TEST(AdIndexTest, SlotFilter) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {SlotId(1)}).ok());
  AdQuery q = Query(Vec({{0, 1.0}}));
  q.slot = SlotId(2);
  EXPECT_TRUE(idx.TopK(q).empty());
  q.slot = SlotId(1);
  EXPECT_EQ(idx.TopK(q).size(), 1u);
}

TEST(AdIndexTest, RemoveHidesAdAndCompacts) {
  AdIndex idx;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 0.1 * (i + 1)}}), {}, {}).ok());
  }
  for (uint32_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(idx.Remove(AdId(i)).ok());
  }
  EXPECT_EQ(idx.size(), 1u);
  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].ad, AdId(9));
  EXPECT_EQ(idx.Remove(AdId(0)).code(), StatusCode::kNotFound);
}

TEST(AdIndexTest, ReinsertAfterRemove) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  ASSERT_TRUE(idx.Remove(AdId(1)).ok());
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 0.5}}), {}, {}).ok());
  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.5);
}

TEST(AdIndexTest, EmptyCases) {
  AdIndex idx;
  EXPECT_TRUE(idx.TopK(Query(Vec({{0, 1.0}}))).empty());
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  EXPECT_TRUE(idx.TopK(Query({}, 10)).empty());      // empty query vector
  EXPECT_TRUE(idx.TopK(Query(Vec({{0, 1.0}}), 0)).empty());  // k = 0
  EXPECT_TRUE(idx.TopK(Query(Vec({{9, 1.0}}))).empty());     // unseen topic
}

TEST(AdIndexTest, EarlyTerminationScansFewerPostings) {
  AdIndex idx;
  const size_t n = 2000;
  for (uint32_t i = 0; i < n; ++i) {
    // One shared topic with smoothly decreasing weights.
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 1.0 / (i + 1.0)}}), {}, {}).ok());
  }
  auto top = idx.TopK(Query(Vec({{0, 1.0}}), 5));
  ASSERT_EQ(top.size(), 5u);
  // TA stops after ~k+1 sorted accesses here; exhaustive touches all n.
  EXPECT_LT(idx.last_postings_scanned(), 50u);
  idx.TopKExhaustive(Query(Vec({{0, 1.0}}), 5));
  EXPECT_EQ(idx.last_postings_scanned(), n);
}

class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalenceTest, TopKMatchesExhaustiveOnRandomCorpora) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299721);
  AdIndex idx;
  const size_t num_ads = 50 + rng.NextBounded(150);
  const size_t num_topics = 20;
  const size_t num_locations = 5;
  const size_t num_slots = 4;
  for (uint32_t i = 0; i < num_ads; ++i) {
    std::vector<text::SparseEntry> entries;
    const size_t nnz = 1 + rng.NextBounded(4);
    for (size_t j = 0; j < nnz; ++j) {
      entries.push_back({static_cast<uint32_t>(rng.NextBounded(num_topics)),
                         rng.NextDouble()});
    }
    std::vector<LocationId> locs;
    if (rng.NextBool(0.6)) {
      locs.push_back(LocationId(
          static_cast<uint32_t>(rng.NextBounded(num_locations))));
    }
    std::vector<SlotId> slots;
    if (rng.NextBool(0.6)) {
      slots.push_back(
          SlotId(static_cast<uint32_t>(rng.NextBounded(num_slots))));
    }
    const double bid = 0.5 + rng.NextDouble();
    ASSERT_TRUE(
        idx.Insert(AdId(i), Vec(std::move(entries)), locs, slots, bid).ok());
  }
  // Random churn.
  for (int d = 0; d < 20; ++d) {
    const AdId victim(static_cast<uint32_t>(rng.NextBounded(num_ads)));
    (void)idx.Remove(victim);  // may be NotFound; that's fine
  }
  for (int q = 0; q < 30; ++q) {
    AdQuery query;
    std::vector<text::SparseEntry> entries;
    const size_t nnz = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < nnz; ++j) {
      entries.push_back({static_cast<uint32_t>(rng.NextBounded(num_topics)),
                         rng.NextDouble()});
    }
    query.topics = Vec(std::move(entries));
    query.k = 1 + rng.NextBounded(10);
    if (rng.NextBool(0.5)) {
      query.location = LocationId(
          static_cast<uint32_t>(rng.NextBounded(num_locations)));
    }
    if (rng.NextBool(0.5)) {
      query.slot = SlotId(static_cast<uint32_t>(rng.NextBounded(num_slots)));
    }
    auto fast = idx.TopK(query);
    auto slow = idx.TopKExhaustive(query);
    ASSERT_EQ(fast.size(), slow.size()) << "query " << q;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].ad, slow[i].ad) << "query " << q << " rank " << i;
      // Bit-exact: both paths score through SparseVector::Dot.
      EXPECT_EQ(fast[i].score, slow[i].score) << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCorpora, IndexEquivalenceTest,
                         ::testing::Range(1, 13));

// A removed ad's slot is reused by the next insert; the postings the old
// occupant left behind carry the old generation and must read as
// tombstones, never as postings of the new occupant.
TEST(AdIndexTest, StalePostingNeverScoresForSlotsNewOccupant) {
  AdIndex idx;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 0.1 + 0.01 * i}}), {}, {}).ok());
  }
  ASSERT_TRUE(idx.Insert(AdId(100), Vec({{0, 0.95}}), {}, {}).ok());
  ASSERT_TRUE(idx.Remove(AdId(100)).ok());
  // 10 live of 11: the tombstone stays in topic 0's list.
  EXPECT_EQ(idx.total_postings(), 11u);
  // The only free slot goes to ad 200, which carries topic 0 only weakly.
  ASSERT_TRUE(idx.Insert(AdId(200), Vec({{0, 0.01}, {1, 1.0}}), {}, {}).ok());

  // k above the live count: no early stop, every posting is read.
  auto top = idx.TopK(Query(Vec({{0, 1.0}}), 20));
  ASSERT_EQ(top.size(), 11u);
  EXPECT_EQ(top.front().ad, AdId(9));
  EXPECT_EQ(top.back(), (ScoredAd{AdId(200), 0.01}));
  EXPECT_EQ(idx.last_postings_scanned(), 12u);  // 11 live + 1 tombstone
  EXPECT_EQ(idx.last_candidates(), 11u);        // ad 200 scored once
  EXPECT_EQ(top, idx.TopKExhaustive(Query(Vec({{0, 1.0}}), 20)));

  // k=1: ad 9 wins; the tombstone at the head of the list must not pull
  // ad 200 in as a candidate.
  top = idx.TopK(Query(Vec({{0, 1.0}}), 1));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].ad, AdId(9));
  EXPECT_EQ(idx.last_candidates(), 1u);
}

// Re-inserting a removed id writes fresh postings; the old ones stay
// dead even though the id is live again.
TEST(AdIndexTest, ReinsertedIdDoesNotReviveOldPostings) {
  AdIndex idx;
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 0.5}}), {}, {}).ok());
  }
  ASSERT_TRUE(idx.Remove(AdId(3)).ok());
  ASSERT_TRUE(idx.Insert(AdId(3), Vec({{1, 0.5}}), {}, {}).ok());
  auto top = idx.TopK(Query(Vec({{0, 1.0}}), 10));
  EXPECT_EQ(top.size(), 5u);
  EXPECT_EQ(idx.last_candidates(), 5u);
  for (const ScoredAd& sa : top) EXPECT_NE(sa.ad, AdId(3));
  top = idx.TopK(Query(Vec({{1, 1.0}}), 10));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], (ScoredAd{AdId(3), 0.5}));
}

// Slot reuse and compaction under heavy churn: ads with several target
// locations and slots come and go over a small id pool (so ids are
// re-inserted and slots recycled), and after every round TopK must equal
// an independent brute-force scorer exactly — ids, order and score bits.
class IndexChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexChurnTest, TopKIsExactThroughSlotReuseAndCompaction) {
  struct ModelAd {
    text::SparseVector topics;
    std::vector<uint32_t> locations;
    std::vector<uint32_t> slots;
    double bid;
  };
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  const uint32_t id_pool = 120;
  const uint32_t num_topics = 12;
  const uint32_t num_locations = 6;
  const uint32_t num_slots = 4;
  AdIndex idx;
  std::map<uint32_t, ModelAd> live;
  bool compacted = false;

  const auto random_topics = [&](size_t max_nnz) {
    std::vector<text::SparseEntry> entries;
    const size_t nnz = 1 + rng.NextBounded(max_nnz);
    for (size_t j = 0; j < nnz; ++j) {
      entries.push_back({static_cast<uint32_t>(rng.NextBounded(num_topics)),
                         rng.NextDouble()});
    }
    return Vec(std::move(entries));
  };

  for (int round = 0; round < 30; ++round) {
    // Inserts (duplicates of live ids are rejected).
    for (int n = 0; n < 25; ++n) {
      const uint32_t id = static_cast<uint32_t>(rng.NextBounded(id_pool));
      ModelAd ad;
      ad.topics = random_topics(4);
      std::vector<LocationId> locs;
      for (uint64_t j = rng.NextBounded(4); j > 0; --j) {
        locs.push_back(
            LocationId(static_cast<uint32_t>(rng.NextBounded(num_locations))));
        ad.locations.push_back(locs.back().value);
      }
      std::vector<SlotId> slots;
      for (uint64_t j = rng.NextBounded(4); j > 0; --j) {
        slots.push_back(
            SlotId(static_cast<uint32_t>(rng.NextBounded(num_slots))));
        ad.slots.push_back(slots.back().value);
      }
      ad.bid = 0.5 + rng.NextDouble();
      const Status st = idx.Insert(AdId(id), ad.topics, locs, slots, ad.bid);
      if (live.count(id) != 0) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(st.ok());
        live.emplace(id, std::move(ad));
      }
    }
    // Removals, heavier than inserts in every other round.
    const int removals = round % 2 == 0 ? 15 : 35;
    for (int n = 0; n < removals && !live.empty(); ++n) {
      auto victim = live.begin();
      std::advance(victim, rng.NextBounded(live.size()));
      const size_t before = idx.total_postings();
      ASSERT_TRUE(idx.Remove(AdId(victim->first)).ok());
      if (idx.total_postings() < before) compacted = true;
      live.erase(victim);
    }
    ASSERT_EQ(idx.size(), live.size());
    // Tombstones never outnumber live postings (CompactList keeps every
    // list at least half live).
    size_t live_postings = 0;
    for (const auto& [id, ad] : live) {
      for (const text::SparseEntry& e : ad.topics.entries()) {
        if (e.weight > 0.0) ++live_postings;
      }
    }
    EXPECT_LE(idx.total_postings(), 2 * live_postings) << "round " << round;

    for (int q = 0; q < 20; ++q) {
      AdQuery query = Query(random_topics(3), 1 + rng.NextBounded(12));
      if (rng.NextBool(0.5)) {
        query.location =
            LocationId(static_cast<uint32_t>(rng.NextBounded(num_locations)));
      }
      if (rng.NextBool(0.5)) {
        query.slot = SlotId(static_cast<uint32_t>(rng.NextBounded(num_slots)));
      }
      const auto passes = [&](const ModelAd& ad) {
        const auto has = [](const std::vector<uint32_t>& v, uint32_t x) {
          return v.empty() || std::find(v.begin(), v.end(), x) != v.end();
        };
        return (!query.location.valid() ||
                has(ad.locations, query.location.value)) &&
               (!query.slot.valid() || has(ad.slots, query.slot.value));
      };
      std::vector<ScoredAd> expected;
      size_t reachable = 0;  // live ads TopK can reach that pass filters
      for (const auto& [id, ad] : live) {
        if (!passes(ad)) continue;
        bool shares_topic = false;
        for (const text::SparseEntry& e : query.topics.entries()) {
          shares_topic |= e.weight > 0.0 && ad.topics.Get(e.id) > 0.0;
        }
        if (shares_topic) ++reachable;
        const double score = query.topics.Dot(ad.topics) * ad.bid;
        if (score > 0.0) expected.push_back(ScoredAd{AdId(id), score});
      }
      std::sort(expected.begin(), expected.end(),
                [](const ScoredAd& a, const ScoredAd& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.ad.value < b.ad.value;
                });
      if (expected.size() > query.k) expected.resize(query.k);

      EXPECT_EQ(idx.TopK(query), expected) << "round " << round << " q " << q;
      EXPECT_EQ(idx.TopKExhaustive(query), expected);
      // With k above every reachable ad the TA never stops early, so it
      // scores exactly the reachable ads: a stale posting read as live
      // would make its slot's new occupant a candidate for a topic it
      // does not carry.
      query.k = live.size() + 1;
      (void)idx.TopK(query);
      EXPECT_EQ(idx.last_candidates(), reachable)
          << "round " << round << " q " << q;
    }
  }
  EXPECT_TRUE(compacted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexChurnTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace adrec::index
