// Tests of the overload-resilient serving layer (src/serve): the bounded
// version-keyed summary cache with its greedy trajectories, single-flight
// coalescing, admission control, deadline-aware load shedding, degraded
// stale serving, failpoint-driven chaos behavior, and the
// request-accounting identities (submitted == admitted + rejected;
// admitted == completed + shed + failed once drained).

#include <sys/stat.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/review_summarizer.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/slog.h"
#include "common/strings.h"
#include "core/model.h"
#include "fault/failpoint.h"
#include "obs/request_trace.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/ontology.h"
#include "serve/server.h"
#include "serve/summary_cache.h"
#include "store/atomic_file.h"
#include "store/state_store.h"

namespace osrs::serve {
namespace {

using fault::FailpointRegistry;

/// Solution-field fingerprint of a summary — everything except timings.
std::string Fingerprint(const ItemSummary& s) {
  std::string out = StrFormat(
      "cost=%.17g eps=%.17g pairs=%zu cands=%zu edges=%zu degraded=%d",
      s.cost, s.epsilon, s.num_pairs, s.num_candidates, s.num_edges,
      s.degraded ? 1 : 0);
  for (const SummaryEntry& e : s.entries) {
    out += StrFormat(" [%s|%d|%.17g|%d|%d]", e.display.c_str(),
                     e.pair.concept_id, e.pair.sentiment, e.review_index,
                     e.sentence_index);
  }
  return out;
}

Item MakeItem(const Ontology& onto, const std::string& id,
              double shift = 0.0) {
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  ConceptId camera = onto.FindByName("camera");
  Item item;
  item.id = id;
  Review review;
  review.sentences.push_back(
      {id + ": screen is great", {{screen, 0.75 - shift}}});
  review.sentences.push_back(
      {id + ": battery is awful", {{battery, -0.9 + shift}}});
  review.sentences.push_back(
      {id + ": camera is fine", {{camera, 0.4 - shift}}});
  item.reviews.push_back(std::move(review));
  return item;
}

/// An item of `sentences` candidate sentences, four per review, each with
/// one to three pairs over a dozen aspects at sentiments on a 0.25 grid,
/// so greedy's picks carry distinct, non-trivial gains.
Item RichItem(const Ontology& onto, const std::string& id, int sentences,
              uint64_t seed) {
  static const char* const kAspects[] = {
      "screen", "screen size", "battery", "battery life",
      "charging", "camera", "photo quality", "zoom",
      "sound", "speaker", "performance", "lag"};
  Rng rng(seed);
  Item item;
  item.id = id;
  for (int s = 0; s < sentences; ++s) {
    if (s % 4 == 0) item.reviews.emplace_back();
    Sentence sentence;
    sentence.text = StrFormat("%s sentence %d", id.c_str(), s);
    const uint64_t pairs = 1 + rng.NextUint64(3);
    for (uint64_t p = 0; p < pairs; ++p) {
      const ConceptId concept_id =
          onto.FindByName(kAspects[rng.NextUint64(12)]);
      const double sentiment =
          -1.0 + 0.25 * static_cast<double>(rng.NextUint64(9));
      sentence.pairs.push_back({concept_id, sentiment});
    }
    item.reviews.back().sentences.push_back(std::move(sentence));
  }
  return item;
}

/// Every test starts and ends with a disarmed failpoint registry.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    onto_ = BuildCellPhoneHierarchy();
  }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  std::vector<Item> Items(int n) {
    std::vector<Item> items;
    for (int i = 0; i < n; ++i) {
      items.push_back(
          MakeItem(onto_, "item" + std::to_string(i), 0.05 * i));
    }
    return items;
  }

  Ontology onto_;
};

class SummaryCacheTest : public ::testing::Test {};

// -------------------------------------------------------- summary cache ----

ItemSummary FakeSummary(double cost) {
  ItemSummary summary;
  summary.cost = cost;
  summary.num_candidates = 1;
  summary.entries.push_back({"entry", {1, 0.5}, 0, 0});
  return summary;
}

/// A greedy-shaped trajectory of `picks` picks over `candidates`
/// candidates: pick i costs 10 - i.
ItemSummary FakeTrajectory(int picks, size_t candidates) {
  ItemSummary summary;
  summary.num_candidates = candidates;
  summary.prefix_costs.push_back(10.0);
  for (int i = 0; i < picks; ++i) {
    summary.entries.push_back({"pick" + std::to_string(i), {1, 0.5}, i, 0});
    summary.prefix_costs.push_back(10.0 - (i + 1));
  }
  summary.cost = summary.prefix_costs.back();
  return summary;
}

TEST_F(SummaryCacheTest, LookupHitRefreshesAndMissCounts) {
  SummaryCache cache(2);
  CacheKey a{"a", 0, 1, 5};
  ItemSummary out;
  EXPECT_FALSE(cache.Lookup(a, 5, &out));
  cache.Insert(a, FakeSummary(1.0));
  EXPECT_TRUE(cache.Lookup(a, 5, &out));
  EXPECT_DOUBLE_EQ(out.cost, 1.0);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
}

TEST_F(SummaryCacheTest, EvictsLeastRecentlyUsed) {
  SummaryCache cache(2);
  CacheKey a{"a", 0, 1, 5}, b{"b", 0, 1, 5}, c{"c", 0, 1, 5};
  cache.Insert(a, FakeSummary(1));
  cache.Insert(b, FakeSummary(2));
  ItemSummary out;
  ASSERT_TRUE(cache.Lookup(a, 5, &out));  // a is now MRU; b is LRU
  cache.Insert(c, FakeSummary(3));        // evicts b
  EXPECT_TRUE(cache.Lookup(a, 5, &out));
  EXPECT_FALSE(cache.Lookup(b, 5, &out));
  EXPECT_TRUE(cache.Lookup(c, 5, &out));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST_F(SummaryCacheTest, CapacityZeroDisablesEverything) {
  SummaryCache cache(0);
  CacheKey a{"a", 0, 1, 5};
  cache.Insert(a, FakeSummary(1));
  ItemSummary out;
  EXPECT_FALSE(cache.Lookup(a, 5, &out));
  uint64_t version = 0;
  EXPECT_FALSE(cache.LookupLatest(a, 5, &out, &version));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().inserts, 0);
}

TEST_F(SummaryCacheTest, LookupLatestFindsNewestEpochAcrossBumps) {
  SummaryCache cache(4);
  cache.Insert(CacheKey{"a", 0, 1, 5}, FakeSummary(1));
  cache.Insert(CacheKey{"a", 3, 1, 5}, FakeSummary(2));
  ItemSummary out;
  uint64_t epoch = 0;
  ASSERT_TRUE(cache.LookupLatest(CacheKey{"a", 0, 1, 5}, 5, &out, &epoch));
  EXPECT_EQ(epoch, 3u);  // the newest generation
  EXPECT_DOUBLE_EQ(out.cost, 2.0);
  // A different fingerprint or k is a different summary family entirely.
  EXPECT_FALSE(cache.LookupLatest(CacheKey{"a", 0, 2, 5}, 5, &out, &epoch));
  EXPECT_FALSE(cache.LookupLatest(CacheKey{"a", 0, 1, 4}, 4, &out, &epoch));
  EXPECT_EQ(cache.stats().stale_hits, 1);

  // With several workers a solve of an older version can finish last: the
  // fallback must still serve the newest version, not the last insert.
  SummaryCache racing(4);
  racing.Insert(CacheKey{"a", 3, 1, 5}, FakeSummary(3));
  racing.Insert(CacheKey{"a", 1, 1, 5}, FakeSummary(1));
  ASSERT_TRUE(racing.LookupLatest(CacheKey{"a", 0, 1, 5}, 5, &out, &epoch));
  EXPECT_EQ(epoch, 3u);
  EXPECT_DOUBLE_EQ(out.cost, 3.0);
}

TEST_F(SummaryCacheTest, TrajectoryAnswersEveryKUpToItsDepth) {
  SummaryCache cache(4);
  const CacheKey trajectory{"a", 2, 1, 0};
  cache.Insert(trajectory, FakeTrajectory(3, 10));
  ItemSummary out;
  for (int k = 0; k <= 3; ++k) {
    ASSERT_TRUE(cache.Lookup(trajectory, k, &out)) << "k=" << k;
    EXPECT_EQ(out.entries.size(), static_cast<size_t>(k));
    EXPECT_EQ(out.cost, 10.0 - k) << "the cost after k picks";
    EXPECT_EQ(out.prefix_costs.size(), static_cast<size_t>(k) + 1);
  }
  // Deeper than the trajectory: a miss, also for the stale fallback.
  EXPECT_FALSE(cache.Lookup(trajectory, 4, &out));
  uint64_t version = 0;
  EXPECT_FALSE(cache.LookupLatest(trajectory, 4, &out, &version));
  ASSERT_TRUE(cache.LookupLatest(trajectory, 2, &out, &version));
  EXPECT_EQ(out.entries.size(), 2u);

  // A deeper trajectory of the same version replaces the shallow one; a
  // shallower one finishing later does not replace it back.
  cache.Insert(trajectory, FakeTrajectory(6, 10));
  cache.Insert(trajectory, FakeTrajectory(3, 10));
  ASSERT_TRUE(cache.Lookup(trajectory, 6, &out));
  EXPECT_EQ(out.cost, 4.0);
  EXPECT_EQ(cache.stats().entries, 1);

  // An item with fewer candidates than k is answered whole.
  const CacheKey small{"b", 2, 1, 0};
  cache.Insert(small, FakeTrajectory(2, 2));
  ASSERT_TRUE(cache.Lookup(small, 8, &out));
  EXPECT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.cost, 8.0);
}

TEST_F(SummaryCacheTest, EvictionDropsLatestIndexOnlyForItsOwnEntry) {
  SummaryCache cache(2);
  cache.Insert(CacheKey{"a", 0, 1, 5}, FakeSummary(1));
  cache.Insert(CacheKey{"a", 1, 1, 5}, FakeSummary(2));  // latest -> epoch 1
  cache.Insert(CacheKey{"b", 0, 1, 5}, FakeSummary(3));  // evicts a@0
  ItemSummary out;
  uint64_t epoch = 0;
  // a@0 (the LRU entry) was evicted, but latest_ pointed at a@1 — the
  // stale-serving index must survive the eviction of an older sibling.
  ASSERT_TRUE(cache.LookupLatest(CacheKey{"a", 0, 1, 5}, 5, &out, &epoch));
  EXPECT_EQ(epoch, 1u);
  cache.Insert(CacheKey{"c", 0, 1, 5}, FakeSummary(4));  // evicts a@1
  cache.Insert(CacheKey{"d", 0, 1, 5}, FakeSummary(5));  // evicts b@0
  EXPECT_FALSE(cache.LookupLatest(CacheKey{"a", 0, 1, 5}, 5, &out, &epoch));
}

TEST_F(SummaryCacheTest, ClearDropsEntriesKeepsStats) {
  SummaryCache cache(2);
  cache.Insert(CacheKey{"a", 0, 1, 5}, FakeSummary(1));
  cache.Clear();
  ItemSummary out;
  EXPECT_FALSE(cache.Lookup(CacheKey{"a", 0, 1, 5}, 5, &out));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().inserts, 1);
}

// -------------------------------------------------- options fingerprint ----

TEST(OptionsFingerprintTest, SolutionFieldsChangeItRuntimeKnobsDoNot) {
  ReviewSummarizerOptions base;
  uint64_t h = OptionsFingerprint(base);
  EXPECT_EQ(h, OptionsFingerprint(base));

  ReviewSummarizerOptions epsilon = base;
  epsilon.epsilon = 0.6;
  EXPECT_NE(OptionsFingerprint(epsilon), h);
  ReviewSummarizerOptions algorithm = base;
  algorithm.algorithm = SummaryAlgorithm::kIlp;
  EXPECT_NE(OptionsFingerprint(algorithm), h);
  ReviewSummarizerOptions chain = base;
  chain.fallback_chain.push_back(SummaryAlgorithm::kGreedyLazy);
  EXPECT_NE(OptionsFingerprint(chain), h);

  // Deployment-tuning knobs proven not to affect the solution.
  ReviewSummarizerOptions runtime = base;
  runtime.deadline_ms = 123.0;
  runtime.collect_stats = !base.collect_stats;
  runtime.graph_build_threads = 4;
  EXPECT_EQ(OptionsFingerprint(runtime), h);
}

// ----------------------------------------------------- cache + epochs ------

TEST_F(ServeTest, CacheHitIsBitIdenticalToFreshSolve) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  request.k = 2;
  ServeResponse first = server.Serve(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.outcome, ServeOutcome::kSolved);
  EXPECT_FALSE(first.degraded);

  ServeResponse second = server.Serve(request);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(second.outcome, ServeOutcome::kCacheHit);
  EXPECT_EQ(Fingerprint(second.summary), Fingerprint(first.summary));

  // And both match a direct full-budget ReviewSummarizer solve.
  ReviewSummarizer summarizer(&onto_, options.summarizer);
  auto direct = summarizer.Summarize(Items(1)[0], 2);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(Fingerprint(first.summary), Fingerprint(*direct));

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.solves, 1);
  EXPECT_EQ(counters.cache_hits, 1);
  EXPECT_EQ(counters.completed, 2);
}

TEST_F(ServeTest, EpochBumpInvalidatesCache) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ASSERT_TRUE(server.Serve(request).status.ok());
  EXPECT_EQ(server.Serve(request).outcome, ServeOutcome::kCacheHit);

  EXPECT_EQ(server.BumpEpoch(), 1u);
  ServeResponse after = server.Serve(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.outcome, ServeOutcome::kSolved)
      << "epoch bump must invalidate the exact-hit path";
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(server.counters().solves, 2);
  EXPECT_EQ(server.counters().epoch_bumps, 1);
}

TEST_F(ServeTest, UpdateItemBumpsEpochAndServesNewContent) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse before = server.Serve(request);
  ASSERT_TRUE(before.status.ok());

  server.UpdateItem(MakeItem(onto_, "item0", 0.3));
  EXPECT_EQ(server.epoch(), 1u);
  ServeResponse after = server.Serve(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.outcome, ServeOutcome::kSolved);
  EXPECT_NE(Fingerprint(after.summary), Fingerprint(before.summary))
      << "the refreshed item's reviews must reach the solver";
}

TEST_F(ServeTest, UpdateItemInvalidatesOnlyThatItem) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(2), options);

  ServeRequest item0;
  item0.item_id = "item0";
  ServeRequest item1;
  item1.item_id = "item1";
  ServeResponse before = server.Serve(item0);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();
  ASSERT_TRUE(server.Serve(item1).status.ok());

  server.UpdateItem(MakeItem(onto_, "item1", 0.3));
  ServeResponse kept = server.Serve(item0);
  ASSERT_TRUE(kept.status.ok()) << kept.status.ToString();
  EXPECT_EQ(kept.outcome, ServeOutcome::kCacheHit)
      << "a write to item1 must not invalidate item0";
  EXPECT_EQ(kept.epoch, 1u) << "responses report the corpus epoch";
  EXPECT_EQ(Fingerprint(kept.summary), Fingerprint(before.summary));
  ServeResponse refreshed = server.Serve(item1);
  ASSERT_TRUE(refreshed.status.ok()) << refreshed.status.ToString();
  EXPECT_EQ(refreshed.outcome, ServeOutcome::kSolved);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.solves, 3);
  EXPECT_EQ(counters.cache_hits, 1);
}

// ------------------------------------------------ greedy trajectories ------

TEST_F(ServeTest, OneTrajectoryAnswersEveryKBitIdentically) {
  // Seven candidates: the k=8 read solves them all, and every k in 0..9 —
  // k 8 and 9 above the candidate count — is read off that one trajectory.
  const Item item = RichItem(onto_, "rich", 7, 11);
  for (SummaryAlgorithm algorithm :
       {SummaryAlgorithm::kGreedy, SummaryAlgorithm::kGreedyLazy}) {
    for (simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kAvx2}) {
      const simd::Backend installed = simd::ForceBackend(backend);
      SCOPED_TRACE(StrFormat("%s on %s", SummaryAlgorithmToString(algorithm),
                             simd::BackendName(installed)));
      ServeOptions options;
      options.num_threads = 1;
      options.summarizer.algorithm = algorithm;
      ASSERT_TRUE(IsPrefixClosed(options.summarizer));
      SummaryServer server(&onto_, {item}, options);
      ReviewSummarizer direct(&onto_, options.summarizer);

      ServeRequest request;
      request.item_id = "rich";
      request.k = 8;
      ServeResponse deep = server.Serve(request);
      ASSERT_TRUE(deep.status.ok()) << deep.status.ToString();
      EXPECT_EQ(deep.outcome, ServeOutcome::kSolved);
      ASSERT_EQ(deep.summary.num_candidates, 7u);
      std::set<double> costs;
      for (int k = 0; k <= 9; ++k) {
        request.k = k;
        ServeResponse response = server.Serve(request);
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        EXPECT_EQ(response.outcome, ServeOutcome::kCacheHit) << "k=" << k;
        Result<ItemSummary> expected = direct.Summarize(item, k);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        EXPECT_EQ(Fingerprint(response.summary), Fingerprint(*expected))
            << "k=" << k;
        EXPECT_EQ(response.summary.prefix_costs, expected->prefix_costs)
            << "k=" << k;
        costs.insert(response.summary.cost);
      }
      EXPECT_GE(costs.size(), 3u) << "the prefixes must differ in cost";
      EXPECT_EQ(server.counters().solves, 1);
    }
  }
  simd::ResetBackendOverride();
}

TEST_F(ServeTest, SmallerKReadsCoalesceOntoADeeperFlight) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):once")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  const Item item = RichItem(onto_, "rich", 12, 5);
  SummaryServer server(&onto_, {item}, options);

  std::vector<ServeResponse> responses(3);
  const int ks[] = {8, 3, 5};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&server, &responses, &ks, i] {
      ServeRequest request;
      request.item_id = "rich";
      request.k = ks[i];
      responses[static_cast<size_t>(i)] = server.Serve(request);
    });
    // The k=8 read is admitted first and holds the worker.
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& thread : threads) thread.join();

  ReviewSummarizer direct(&onto_, options.summarizer);
  for (int i = 0; i < 3; ++i) {
    const ServeResponse& response = responses[static_cast<size_t>(i)];
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.outcome,
              i == 0 ? ServeOutcome::kSolved : ServeOutcome::kCoalesced);
    Result<ItemSummary> expected = direct.Summarize(item, ks[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(response.summary.entries.size(), static_cast<size_t>(ks[i]));
    EXPECT_EQ(Fingerprint(response.summary), Fingerprint(*expected))
        << "k=" << ks[i];
  }
  EXPECT_EQ(server.counters().solves, 1);
  EXPECT_EQ(server.counters().coalesced, 2);
}

TEST_F(ServeTest, TrajectoryDepthOnlyDeepens) {
  ServeOptions options;
  options.num_threads = 1;
  const Item item = RichItem(onto_, "rich", 12, 5);
  SummaryServer server(&onto_, {item}, options);
  ReviewSummarizer direct(&onto_, options.summarizer);
  auto serve = [&server](int k) {
    ServeRequest request;
    request.item_id = "rich";
    request.k = k;
    return server.Serve(request);
  };

  // A 3-deep trajectory cannot answer k=8: that read solves again.
  EXPECT_EQ(serve(3).outcome, ServeOutcome::kSolved);
  ServeResponse deeper = serve(8);
  EXPECT_EQ(deeper.outcome, ServeOutcome::kSolved);
  EXPECT_EQ(serve(5).outcome, ServeOutcome::kCacheHit);
  EXPECT_EQ(server.counters().solves, 2);

  // After a write, a k=3 read solves to the item's largest k so far, so a
  // k=7 read of the new version is already cached.
  const Item updated = RichItem(onto_, "rich", 12, 6);
  server.UpdateItem(updated);
  EXPECT_EQ(serve(3).outcome, ServeOutcome::kSolved);
  ServeResponse seven = serve(7);
  EXPECT_EQ(seven.outcome, ServeOutcome::kCacheHit);
  Result<ItemSummary> expected = direct.Summarize(updated, 7);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Fingerprint(seven.summary), Fingerprint(*expected));
  EXPECT_EQ(server.counters().solves, 3);
}

TEST_F(ServeTest, NonPrefixClosedOptionsKeepPerKEntries) {
  ReviewSummarizerOptions ilp;
  ilp.algorithm = SummaryAlgorithm::kIlp;
  ReviewSummarizerOptions local_search;
  local_search.algorithm = SummaryAlgorithm::kLocalSearch;
  ReviewSummarizerOptions auto_epsilon;
  auto_epsilon.auto_epsilon = true;
  for (const ReviewSummarizerOptions& summarizer :
       {ilp, local_search, auto_epsilon}) {
    SCOPED_TRACE(StrFormat("%s auto_epsilon=%d",
                           SummaryAlgorithmToString(summarizer.algorithm),
                           summarizer.auto_epsilon ? 1 : 0));
    ASSERT_FALSE(IsPrefixClosed(summarizer));
    ServeOptions options;
    options.num_threads = 1;
    options.summarizer = summarizer;
    const Item item = RichItem(onto_, "rich", 6, 3);
    SummaryServer server(&onto_, {item}, options);
    ReviewSummarizer direct(&onto_, summarizer);
    for (int k : {3, 2}) {
      ServeRequest request;
      request.item_id = "rich";
      request.k = k;
      ServeResponse response = server.Serve(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.outcome, ServeOutcome::kSolved) << "k=" << k;
      Result<ItemSummary> expected = direct.Summarize(item, k);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(Fingerprint(response.summary), Fingerprint(*expected));
    }
    EXPECT_EQ(server.counters().solves, 2);
  }

  // The other options that make an answer depend on k.
  ReviewSummarizerOptions strict;
  strict.strict_validation = true;
  ReviewSummarizerOptions work_bound;
  work_bound.max_solver_work = 1000;
  ReviewSummarizerOptions ilp_fallback;
  ilp_fallback.fallback_chain = {SummaryAlgorithm::kIlp};
  EXPECT_FALSE(IsPrefixClosed(strict));
  EXPECT_FALSE(IsPrefixClosed(work_bound));
  EXPECT_FALSE(IsPrefixClosed(ilp_fallback));
  EXPECT_TRUE(IsPrefixClosed(ReviewSummarizerOptions{}));
}

TEST_F(ServeTest, UnknownItemAndNegativeKAreRejected) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest missing;
  missing.item_id = "nope";
  ServeResponse response = server.Serve(missing);
  EXPECT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);

  ServeRequest bad;
  bad.item_id = "item0";
  bad.k = -1;
  response = server.Serve(bad);
  EXPECT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, 2);
  EXPECT_EQ(counters.rejected, 2);
  EXPECT_EQ(counters.admitted, 0);
}

// --------------------------------------------------------- coalescing ------

TEST_F(ServeTest, ConcurrentRequestsForOneItemCoalesceIntoOneSolve) {
  // Stretch the solve with an injected 250 ms stall so every thread
  // submits while the flight is still in the air.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());

  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  constexpr int kClients = 8;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &responses, c] {
      ServeRequest request;
      request.item_id = "item0";
      responses[static_cast<size_t>(c)] = server.Serve(request);
    });
  }
  for (std::thread& thread : threads) thread.join();
  FailpointRegistry::Global().DisarmAll();

  int solved = 0, coalesced = 0;
  for (const ServeResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(Fingerprint(response.summary),
              Fingerprint(responses[0].summary))
        << "every coalesced waiter must receive the identical summary";
    if (response.outcome == ServeOutcome::kSolved) ++solved;
    if (response.outcome == ServeOutcome::kCoalesced) ++coalesced;
  }
  EXPECT_EQ(solved, 1);
  EXPECT_EQ(coalesced, kClients - 1);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.solves, 1) << "a hot item must cost exactly one solve";
  EXPECT_EQ(counters.coalesced, kClients - 1);
  EXPECT_EQ(counters.completed, kClients);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
}

TEST_F(ServeTest, QueuedReadSolvesTheVersionCurrentAtItsEpoch) {
  // One worker, held for 250 ms by the first solve. A second read with a
  // larger k (so its flight is deeper and it cannot coalesce onto the
  // first) queues behind it, and an UpdateItem lands while it waits. The
  // queued read is labelled with the epoch it was admitted at, so it must
  // carry that epoch's version of the item, not the one swapped in while
  // it queued.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):once")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);
  const Item admitted_version = MakeItem(onto_, "item0");
  const Item updated_version = MakeItem(onto_, "item0", 0.5);
  const uint64_t admitted_epoch = server.epoch();

  std::thread busy([&server] {
    ServeRequest request;
    request.item_id = "item0";
    request.k = 1;
    EXPECT_TRUE(server.Serve(request).status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ServeResponse queued_response;
  std::thread queued([&server, &queued_response] {
    ServeRequest request;
    request.item_id = "item0";
    request.k = 2;
    queued_response = server.Serve(request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.UpdateItem(updated_version);
  queued.join();
  busy.join();

  ASSERT_TRUE(queued_response.status.ok())
      << queued_response.status.ToString();
  EXPECT_EQ(queued_response.outcome, ServeOutcome::kSolved);
  EXPECT_EQ(queued_response.epoch, admitted_epoch);
  EXPECT_EQ(server.epoch(), admitted_epoch + 1);
  ReviewSummarizer direct(&onto_, options.summarizer);
  Result<ItemSummary> expected = direct.Summarize(admitted_version, 2);
  Result<ItemSummary> newer = direct.Summarize(updated_version, 2);
  ASSERT_TRUE(expected.ok() && newer.ok());
  ASSERT_NE(Fingerprint(*expected), Fingerprint(*newer))
      << "the two versions must be distinguishable";
  EXPECT_EQ(Fingerprint(queued_response.summary), Fingerprint(*expected));
}

// ------------------------------------------------- admission + shedding ----

TEST_F(ServeTest, FullQueueRejectsWithResourceExhausted) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 1;
  SummaryServer server(&onto_, Items(3), options);

  // item0 occupies the single worker; item1 fills the queue; item2 must
  // be turned away at the door. Distinct items so nothing coalesces.
  std::thread first([&server] {
    ServeRequest request;
    request.item_id = "item0";
    EXPECT_TRUE(server.Serve(request).status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread second([&server] {
    ServeRequest request;
    request.item_id = "item1";
    EXPECT_TRUE(server.Serve(request).status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ServeRequest request;
  request.item_id = "item2";
  ServeResponse rejected = server.Serve(request);
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  first.join();
  second.join();
  FailpointRegistry::Global().DisarmAll();

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.rejected, 1);
  EXPECT_EQ(counters.completed, 2);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

TEST_F(ServeTest, ExpiredDeadlinesAreShedWithoutStarvingAdmittedWork) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // no stale fallback: shedding is visible
  SummaryServer server(&onto_, Items(1), options);

  // A 1 µs deadline is always expired by dequeue time, so the worker
  // sheds instead of starting a doomed solve.
  for (int i = 0; i < 5; ++i) {
    ServeRequest request;
    request.item_id = "item0";
    request.deadline_ms = 0.001;
    ServeResponse response = server.Serve(request);
    EXPECT_EQ(response.outcome, ServeOutcome::kShed);
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  }

  // Shedding must not have wedged the worker: an unconstrained request
  // still completes.
  ServeRequest request;
  request.item_id = "item0";
  ServeResponse ok = server.Serve(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.outcome, ServeOutcome::kSolved);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.shed, 5);
  EXPECT_EQ(counters.completed, 1);
  EXPECT_EQ(counters.solves, 1) << "shed requests must not reach the solver";
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

TEST_F(ServeTest, OverBudgetRequestServesStaleDegradedSummary) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse fresh = server.Serve(request);
  ASSERT_TRUE(fresh.status.ok());
  server.BumpEpoch();  // the cached summary is now one generation old

  ServeRequest hurried = request;
  hurried.deadline_ms = 0.001;  // expired by dequeue
  ServeResponse degraded = server.Serve(hurried);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.summary.degraded);
  EXPECT_EQ(degraded.epoch, 0u) << "the answer came from the old epoch";
  EXPECT_EQ(server.counters().shed, 0)
      << "a degraded answer is a completion, not a shed";
  EXPECT_EQ(server.counters().degraded, 1);
  EXPECT_EQ(server.cache_stats().stale_hits, 1);
}

// ----------------------------------------------------------- chaos ---------

TEST_F(ServeTest, SolveFailureFallsBackToStaleThenErrors) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ASSERT_TRUE(server.Serve(request).status.ok());
  server.BumpEpoch();

  // First post-bump solve fails transiently: the stale summary answers,
  // flagged degraded.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=error(unavailable):once")
                  .ok());
  ServeResponse degraded = server.Serve(request);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_EQ(degraded.epoch, 0u);

  // Same failure with stale serving disabled: a clean error, process alive.
  ServeOptions strict = options;
  strict.serve_stale_when_over_budget = false;
  SummaryServer strict_server(&onto_, Items(1), strict);
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=error(unavailable):once")
                  .ok());
  ServeResponse failed = strict_server.Serve(request);
  EXPECT_EQ(failed.outcome, ServeOutcome::kFailed);
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(strict_server.counters().failed, 1);
}

TEST_F(ServeTest, InjectedBadAllocIsIsolatedToItsRequest) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.coverage.alloc=bad_alloc:once")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse failed = server.Serve(request);
  EXPECT_EQ(failed.outcome, ServeOutcome::kFailed);
  EXPECT_EQ(failed.status.code(), StatusCode::kResourceExhausted);

  // The worker survived the exception; the next request solves normally.
  ServeResponse ok = server.Serve(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.outcome, ServeOutcome::kSolved);
}

TEST_F(ServeTest, CacheFailpointDegradesToMissNeverFailsRequests) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.cache=error(unavailable):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  for (int i = 0; i < 2; ++i) {
    ServeResponse response = server.Serve(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.outcome, ServeOutcome::kSolved);
  }
  // An unavailable cache means no hits and no inserts — just solves.
  EXPECT_EQ(server.counters().solves, 2);
  EXPECT_EQ(server.counters().cache_hits, 0);
  EXPECT_EQ(server.cache_stats().inserts, 0);
}

TEST_F(ServeTest, AdmitFailpointRejectsAtTheFrontDoor) {
  ASSERT_TRUE(
      FailpointRegistry::Global()
          .ArmFromSpec("osrs.serve.admit=error(resource_exhausted):once")
          .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse rejected = server.Serve(request);
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  ServeResponse ok = server.Serve(request);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
}

// ------------------------------------------------------------ shutdown -----

TEST_F(ServeTest, StopDrainsQueuedRequestsAndRejectsNewOnes) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(3), options);

  std::vector<ServeResponse> responses(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&server, &responses, i] {
      ServeRequest request;
      request.item_id = "item" + std::to_string(i);
      responses[static_cast<size_t>(i)] = server.Serve(request);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  // item0 is mid-solve; item1 and item2 are queued. Stop fails the queued
  // ones with kUnavailable and lets the in-flight solve finish.
  server.Stop();
  for (std::thread& thread : threads) thread.join();
  FailpointRegistry::Global().DisarmAll();

  int ok = 0, unavailable = 0;
  for (const ServeResponse& response : responses) {
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(unavailable, 2);

  ServeRequest late;
  late.item_id = "item0";
  ServeResponse rejected = server.Serve(late);
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

// ------------------------------------------------- request tracing ---------

using obs::RequestSpanKind;

TEST_F(ServeTest, CoalescedFollowersShareSolveSpanWithDistinctRequestIds) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  constexpr int kClients = 6;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &responses, c] {
      ServeRequest request;
      request.item_id = "item0";
      responses[static_cast<size_t>(c)] = server.Serve(request);
    });
  }
  for (std::thread& thread : threads) thread.join();
  FailpointRegistry::Global().DisarmAll();

  std::set<uint64_t> request_ids;
  const ServeResponse* leader = nullptr;
  for (const ServeResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.trace.balanced());
    EXPECT_TRUE(response.trace.HasSpan(RequestSpanKind::kSolve))
        << "followers must carry the leader's solve span";
    EXPECT_GT(response.request_id, 0u);
    EXPECT_EQ(response.request_id, response.trace.context.request_id);
    EXPECT_EQ(response.trace_id, obs::DeriveTraceId(response.request_id));
    EXPECT_EQ(response.summary.request_id, response.request_id);
    EXPECT_EQ(response.summary.trace_id, response.trace_id);
    request_ids.insert(response.request_id);
    if (response.outcome == ServeOutcome::kSolved) leader = &response;
  }
  EXPECT_EQ(request_ids.size(), static_cast<size_t>(kClients))
      << "coalescing must not collapse request identities";
  ASSERT_NE(leader, nullptr);
  EXPECT_FALSE(leader->trace.HasSpan(RequestSpanKind::kCoalescedWait));
  int64_t leader_solve_ns =
      leader->trace.SpanDurationNs(RequestSpanKind::kSolve);
  for (const ServeResponse& response : responses) {
    if (response.outcome != ServeOutcome::kCoalesced) continue;
    EXPECT_EQ(response.trace.SpanDurationNs(RequestSpanKind::kSolve),
              leader_solve_ns)
        << "the solve span is shared, byte for byte, with the leader";
    EXPECT_TRUE(response.trace.HasSpan(RequestSpanKind::kCoalescedWait));
  }
}

TEST_F(ServeTest, ShedDegradedAndCompletedOutcomesCarryBalancedSpanTrees) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // no stale fallback: shedding is visible
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest hurried;
  hurried.item_id = "item0";
  hurried.deadline_ms = 0.001;  // expired by dequeue
  ServeResponse shed = server.Serve(hurried);
  ASSERT_EQ(shed.outcome, ServeOutcome::kShed);
  EXPECT_TRUE(shed.trace.balanced());
  EXPECT_TRUE(shed.trace.HasSpan(RequestSpanKind::kQueueWait));
  EXPECT_TRUE(shed.trace.HasSpan(RequestSpanKind::kShedDecision));
  EXPECT_FALSE(shed.trace.HasSpan(RequestSpanKind::kSolve))
      << "a shed request must not carry a solve span";

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse completed = server.Serve(request);
  ASSERT_TRUE(completed.status.ok());
  EXPECT_TRUE(completed.trace.balanced());
  EXPECT_TRUE(completed.trace.HasSpan(RequestSpanKind::kQueueWait));
  EXPECT_TRUE(completed.trace.HasSpan(RequestSpanKind::kSolve));

  // Degraded stale serve: cache on, epoch bumped, expired deadline.
  ServeOptions stale_options;
  stale_options.num_threads = 1;
  SummaryServer stale_server(&onto_, Items(1), stale_options);
  ASSERT_TRUE(stale_server.Serve(request).status.ok());
  stale_server.BumpEpoch();
  ServeResponse degraded = stale_server.Serve(hurried);
  ASSERT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(degraded.trace.balanced());
  EXPECT_TRUE(degraded.trace.HasSpan(RequestSpanKind::kQueueWait));
  EXPECT_TRUE(degraded.trace.HasSpan(RequestSpanKind::kStaleFallback));

  // Front-door rejection: still one balanced trace.
  ServeRequest unknown;
  unknown.item_id = "no-such-item";
  ServeResponse rejected = server.Serve(unknown);
  ASSERT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(rejected.trace.balanced());
}

TEST(TraceRingTest, EvictsOldestFirstAtCapacity) {
  obs::TraceRing ring(3);
  for (uint64_t id = 1; id <= 5; ++id) {
    obs::RequestTrace trace;
    trace.context.request_id = id;
    ring.Push(trace);
  }
  std::vector<obs::RequestTrace> traces = ring.Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].context.request_id, 3u) << "oldest evicted first";
  EXPECT_EQ(traces[1].context.request_id, 4u);
  EXPECT_EQ(traces[2].context.request_id, 5u);
}

TEST_F(ServeTest, ServerTraceRingKeepsTheMostRecentRequests) {
  ServeOptions options;
  options.num_threads = 1;
  options.trace_ring_capacity = 2;
  SummaryServer server(&onto_, Items(1), options);
  for (int i = 0; i < 5; ++i) {
    ServeRequest request;
    request.item_id = "item0";
    ASSERT_TRUE(server.Serve(request).status.ok());
  }
  std::vector<obs::RequestTrace> traces = server.recent_traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].context.request_id, 4u);
  EXPECT_EQ(traces[1].context.request_id, 5u);
  for (const obs::RequestTrace& trace : traces) {
    EXPECT_TRUE(trace.balanced());
  }
}

TEST_F(ServeTest, StructuredLogsEmitSlowAndShedEvents) {
  // The sink runs under the logger's emit lock, so appends from the
  // worker thread and the caller thread cannot interleave.
  std::string captured;
  slog::SetSink(
      [](std::string_view line, void* user_data) {
        static_cast<std::string*>(user_data)->append(line);
      },
      &captured);

  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  options.slow_request_threshold_ms = 1e-6;  // everything is "slow"
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest hurried;
  hurried.item_id = "item0";
  hurried.deadline_ms = 0.001;
  ASSERT_EQ(server.Serve(hurried).outcome, ServeOutcome::kShed);
  ServeRequest request;
  request.item_id = "item0";
  ASSERT_TRUE(server.Serve(request).status.ok());
  slog::SetSink(nullptr, nullptr);

  EXPECT_NE(captured.find("\"message\":\"request shed\""), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("\"message\":\"slow request\""), std::string::npos);
  EXPECT_NE(captured.find("\"trace_id\":\""), std::string::npos)
      << "events must carry the log-correlation id";
  // The span tree rides inside the "spans" field as an escaped JSON
  // string, so look for the bare kind token.
  EXPECT_NE(captured.find("queue_wait"), std::string::npos)
      << "the slow-request event must embed the span tree";
}

// ------------------------------------------------- durability & drain ------

/// Fresh empty state directory for restart tests (clears generations a
/// previous run of the binary may have left).
std::string FreshServeStateDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/osrs_serve_state_" + tag;
  (void)::mkdir(dir.c_str(), 0755);
  store::StateStoreOptions naming_options;
  naming_options.dir = dir;
  store::StateStore naming(naming_options);
  for (uint64_t gen = 0; gen < 64; ++gen) {
    (void)store::RemoveFile(naming.SnapshotPath(gen));
    (void)store::RemoveFile(naming.JournalPath(gen));
  }
  return dir;
}

TEST_F(ServeTest, RestartRecoversMutationsAndEpochWithColdCache) {
  std::string dir = FreshServeStateDir("restart");
  ServeOptions options;
  options.num_threads = 1;
  options.state_dir = dir;

  std::string updated_fingerprint;
  uint64_t epoch_before = 0;
  {
    SummaryServer server(&onto_, Items(1), options);
    ASSERT_TRUE(server.recovery_status().ok())
        << server.recovery_status().ToString();
    server.UpdateItem(MakeItem(onto_, "item0", 0.3));
    ServeRequest request;
    request.item_id = "item0";
    ServeResponse response = server.Serve(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    updated_fingerprint = Fingerprint(response.summary);
    epoch_before = server.epoch();
    ASSERT_TRUE(server.Drain(2000.0));
  }

  // Restart against the same state dir, constructor-seeded with the
  // ORIGINAL (pre-update) corpus: recovery must overlay the journaled
  // update and restore the epoch, so the server picks up exactly where
  // the drained instance left off.
  SummaryServer restarted(&onto_, Items(1), options);
  ASSERT_TRUE(restarted.recovery_status().ok())
      << restarted.recovery_status().ToString();
  EXPECT_TRUE(restarted.persistence_enabled());
  EXPECT_TRUE(restarted.recovery_info().found_snapshot);
  EXPECT_EQ(restarted.epoch(), epoch_before) << "epoch continuity";

  // The cache is COLD after restart: the first request must be a fresh
  // solve at the recovered epoch — never a stale/degraded answer from a
  // previous life — and must see the recovered (updated) reviews.
  ServeRequest request;
  request.item_id = "item0";
  ServeResponse response = restarted.Serve(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, ServeOutcome::kSolved);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.epoch, epoch_before);
  EXPECT_EQ(restarted.cache_stats().stale_hits, 0u);
  EXPECT_EQ(Fingerprint(response.summary), updated_fingerprint)
      << "recovered reviews must produce the same summary the pre-restart "
         "server served";

  // Every item restarts at the recovered epoch as its version: one
  // trajectory answers k=5 and then k=3, each as a direct solve of the
  // recovered reviews would.
  const Item recovered_item = MakeItem(onto_, "item0", 0.3);
  ReviewSummarizer direct(&onto_, options.summarizer);
  request.k = 3;
  ServeResponse smaller = restarted.Serve(request);
  ASSERT_TRUE(smaller.status.ok()) << smaller.status.ToString();
  EXPECT_EQ(smaller.outcome, ServeOutcome::kCacheHit);
  for (const auto& [k, served] :
       {std::pair<int, const ServeResponse*>{5, &response}, {3, &smaller}}) {
    Result<ItemSummary> expected = direct.Summarize(recovered_item, k);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Fingerprint(served->summary), Fingerprint(*expected))
        << "k=" << k;
  }
  EXPECT_EQ(restarted.counters().solves, 1);
}

TEST_F(ServeTest, DrainCompletesWorkRejectsNewAndCollapsesJournal) {
  std::string dir = FreshServeStateDir("drain");
  ServeOptions options;
  options.num_threads = 2;
  options.state_dir = dir;
  SummaryServer server(&onto_, Items(3), options);
  ASSERT_TRUE(server.recovery_status().ok());

  for (int i = 0; i < 3; ++i) {
    server.UpdateItem(MakeItem(onto_, "item" + std::to_string(i), 0.2));
    ServeRequest request;
    request.item_id = "item" + std::to_string(i);
    ASSERT_TRUE(server.Serve(request).status.ok());
  }

  EXPECT_TRUE(server.Drain(2000.0)) << "drain must finish within deadline";

  // Post-drain admission is closed.
  ServeRequest late;
  late.item_id = "item0";
  ServeResponse rejected = server.Serve(late);
  EXPECT_NE(rejected.outcome, ServeOutcome::kSolved);
  EXPECT_FALSE(rejected.status.ok());

  // The accounting identities hold once drained: nothing in flight is
  // unaccounted for.
  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);

  // Drain's final compaction collapsed the journal into a snapshot: a
  // recovery replays zero records and sees every mutation in the snapshot.
  store::StateStoreOptions store_options;
  store_options.dir = dir;
  store::StateStore store(store_options);
  store::SnapshotData state;
  Result<store::RecoveryInfo> info = store.Recover(&state);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->found_snapshot);
  EXPECT_EQ(info->journal_records_replayed, 0u);
  EXPECT_EQ(info->epoch, server.epoch());
  EXPECT_EQ(state.items.size(), 3u);
}

TEST_F(ServeTest, WatchdogCancelsStalledSolveAndServerSurvives) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // no stale fallback: the stall is visible
  options.watchdog_stall_threshold_ms = 5.0;
  options.watchdog_poll_ms = 1.0;
  SummaryServer server(&onto_, Items(1), options);

  // Stall the solve (inside the watchdog's measured window) far past the
  // threshold: the watchdog must fire and cancel it via the budget's
  // cancellation flag.
  fault::FailpointSpec spec;
  spec.action = fault::FailAction::kDelay;
  spec.delay_ms = 100.0;
  spec.trigger = fault::FailTrigger::kOnce;
  FailpointRegistry::Global().Get("osrs.serve.solve")->Arm(spec);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse stalled = server.Serve(request);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_GE(server.counters().watchdog_stalls, 1)
      << "a 100ms solve against a 5ms threshold must trip the watchdog";

  // The cancellation is scoped to the stalled flight: the next request
  // solves normally on the same worker.
  ServeResponse healthy = server.Serve(request);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();
  EXPECT_EQ(healthy.outcome, ServeOutcome::kSolved);
  (void)stalled;

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

}  // namespace
}  // namespace osrs::serve
