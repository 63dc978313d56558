#include "serve/protocol.h"

#include <gtest/gtest.h>

namespace adrec::serve {
namespace {

TEST(ServeProtocolTest, ParsesTweet) {
  auto req = ParseRequest("tweet\t4\t86400\tcoffee and music");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().verb, Verb::kTweet);
  EXPECT_EQ(req.value().tweet.user, UserId(4));
  EXPECT_EQ(req.value().tweet.time, 86400);
  EXPECT_EQ(req.value().tweet.text, "coffee and music");
}

TEST(ServeProtocolTest, TweetFormatterRoundTrips) {
  feed::Tweet t;
  t.user = UserId(9);
  t.time = 1234;
  t.text = "brunch at the park";
  auto req = ParseRequest(FormatTweetCmd(t));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().tweet.user, t.user);
  EXPECT_EQ(req.value().tweet.time, t.time);
  EXPECT_EQ(req.value().tweet.text, t.text);
}

TEST(ServeProtocolTest, ParsesCheckIn) {
  auto req = ParseRequest("checkin\t4\t86500\t7");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().verb, Verb::kCheckIn);
  EXPECT_EQ(req.value().check_in.user, UserId(4));
  EXPECT_EQ(req.value().check_in.location, LocationId(7));
}

TEST(ServeProtocolTest, AdRoundTripsThroughWire) {
  feed::Ad ad;
  ad.id = AdId(12);
  ad.campaign = CampaignId(3);
  ad.budget_impressions = 100;
  ad.bid = 1.25;
  ad.target_locations = {LocationId(1), LocationId(5)};
  ad.target_slots = {SlotId(2)};
  ad.copy = "fresh coffee downtown";
  auto req = ParseRequest(FormatAdPutCmd(ad));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().verb, Verb::kAdPut);
  EXPECT_EQ(req.value().ad.id, ad.id);
  EXPECT_EQ(req.value().ad.campaign, ad.campaign);
  EXPECT_EQ(req.value().ad.budget_impressions, ad.budget_impressions);
  EXPECT_DOUBLE_EQ(req.value().ad.bid, ad.bid);
  EXPECT_EQ(req.value().ad.target_locations, ad.target_locations);
  EXPECT_EQ(req.value().ad.target_slots, ad.target_slots);
  EXPECT_EQ(req.value().ad.copy, ad.copy);
}

TEST(ServeProtocolTest, ParsesTopKVariants) {
  auto bare = ParseRequest("topk\t4\t3");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().verb, Verb::kTopK);
  EXPECT_EQ(bare.value().tweet.user, UserId(4));
  EXPECT_EQ(bare.value().k, 3u);
  EXPECT_FALSE(bare.value().has_time);

  auto timed = ParseRequest("topk\t4\t3\t7200");
  ASSERT_TRUE(timed.ok());
  EXPECT_TRUE(timed.value().has_time);
  EXPECT_EQ(timed.value().tweet.time, 7200);
  EXPECT_TRUE(timed.value().tweet.text.empty());

  // Text after the time is the free-text tail (may contain spaces).
  auto texted = ParseRequest("topk\t4\t3\t7200\tlive jazz tonight");
  ASSERT_TRUE(texted.ok());
  EXPECT_EQ(texted.value().tweet.text, "live jazz tonight");
}

TEST(ServeProtocolTest, RejectsBadTopK) {
  EXPECT_FALSE(ParseRequest("topk").ok());
  EXPECT_FALSE(ParseRequest("topk\t4").ok());
  EXPECT_FALSE(ParseRequest("topk\t4\t0").ok());      // k out of range
  EXPECT_FALSE(ParseRequest("topk\t4\t1001").ok());   // k out of range
  EXPECT_FALSE(ParseRequest("topk\t4\t3\t-5").ok());  // negative time
  EXPECT_FALSE(ParseRequest("topk\tx\t3").ok());      // bad user
}

TEST(ServeProtocolTest, ParsesAdminVerbs) {
  EXPECT_EQ(ParseRequest("stats").value().verb, Verb::kStats);
  EXPECT_EQ(ParseRequest("metrics").value().verb, Verb::kMetrics);
  EXPECT_EQ(ParseRequest("ping").value().verb, Verb::kPing);
  EXPECT_EQ(ParseRequest("quit").value().verb, Verb::kQuit);

  auto def = ParseRequest("analyze");
  ASSERT_TRUE(def.ok());
  EXPECT_LT(def.value().alpha, 0.0);  // default-alpha sentinel

  auto explicit_alpha = ParseRequest("analyze\t0.45");
  ASSERT_TRUE(explicit_alpha.ok());
  EXPECT_DOUBLE_EQ(explicit_alpha.value().alpha, 0.45);

  auto snap = ParseRequest("snapshot\t/tmp/snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().dir, "/tmp/snap");
}

TEST(ServeProtocolTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("frobnicate").ok());
  EXPECT_FALSE(ParseRequest("tweet").ok());             // missing payload
  EXPECT_FALSE(ParseRequest("tweet\tnotanum\t1\tx").ok());
  EXPECT_FALSE(ParseRequest("checkin\t1\t2").ok());     // missing location
  EXPECT_FALSE(ParseRequest("addel").ok());
  EXPECT_FALSE(ParseRequest("addel\t1\t2").ok());       // extra field
  EXPECT_FALSE(ParseRequest("analyze\t1.5").ok());      // alpha > 1
  EXPECT_FALSE(ParseRequest("analyze\t-0.1").ok());
  EXPECT_FALSE(ParseRequest("snapshot").ok());
  EXPECT_FALSE(ParseRequest("stats\textra").ok());      // no-arg verbs
  EXPECT_FALSE(ParseRequest("ping\textra").ok());
  EXPECT_FALSE(ParseRequest("quit\textra").ok());
}

TEST(ServeProtocolTest, ReplHandshakeHasOneForm) {
  auto req = ParseRequest(FormatReplCmd(1, 2, 42));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().verb, Verb::kRepl);
  EXPECT_EQ(req.value().repl_stream, 1u);
  EXPECT_EQ(req.value().repl_streams, 2u);
  EXPECT_EQ(req.value().cursor, 42u);
  EXPECT_FALSE(ParseRequest("repl").ok());
  EXPECT_FALSE(ParseRequest("repl\t42").ok());        // cursor only
  EXPECT_FALSE(ParseRequest("repl\t0\t42").ok());     // stream + cursor
  EXPECT_FALSE(ParseRequest("repl\t0\t1\t2\t3").ok());
  EXPECT_FALSE(ParseRequest("repl\t0\t-1\t0").ok());
}

TEST(ServeProtocolTest, VerbNamesMatchWireTokens) {
  for (size_t v = 0; v < kNumVerbs; ++v) {
    const Verb verb = static_cast<Verb>(v);
    std::string line(VerbName(verb));
    // Give payload-carrying verbs a minimal valid payload.
    if (verb == Verb::kTweet) line += "\t1\t0\tx";
    if (verb == Verb::kCheckIn) line += "\t1\t0\t2";
    if (verb == Verb::kAdPut) line += "\t1\t1\t10\t1.0\t\t\tx";
    if (verb == Verb::kAdDel || verb == Verb::kMatch) line += "\t1";
    if (verb == Verb::kTopK) line += "\t1\t3";
    if (verb == Verb::kSnapshot) line += "\t/tmp/x";
    if (verb == Verb::kRepl) line += "\t0\t1\t0";
    auto req = ParseRequest(line);
    ASSERT_TRUE(req.ok()) << line << ": " << req.status().ToString();
    EXPECT_EQ(req.value().verb, verb);
  }
}

TEST(ServeProtocolTest, TopKFormatterSanitizesText) {
  const std::string cmd =
      FormatTopKCmd(UserId(1), 3, 100, "tabs\there\nand newlines");
  auto req = ParseRequest(cmd);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().tweet.text, "tabs here and newlines");
}

}  // namespace
}  // namespace adrec::serve
