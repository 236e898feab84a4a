// Tests for the BGP substrate: RIB, update feed, the Fig. 2 split
// schedule, hitlist service, and IRR/RPKI registries.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/hitlist.hpp"
#include "bgp/rib.hpp"
#include "bgp/route_object.hpp"
#include "bgp/splitter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace v6t::bgp {
namespace {

using net::Ipv6Address;
using net::Prefix;

TEST(Rib, AnnounceWithdrawLookup) {
  Rib rib;
  rib.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001},
               sim::SimTime{0});
  rib.announce(Prefix::mustParse("2001:db8:5::/48"), net::Asn{65002},
               sim::SimTime{10});

  auto route = rib.lookup(Ipv6Address::mustParse("2001:db8:5::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->first.length(), 48u);
  EXPECT_EQ(route->second.origin, net::Asn{65002});

  route = rib.lookup(Ipv6Address::mustParse("2001:db8:6::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->second.origin, net::Asn{65001});

  EXPECT_FALSE(rib.isRoutable(Ipv6Address::mustParse("2001:db9::1")));

  rib.withdraw(Prefix::mustParse("2001:db8:5::/48"), sim::SimTime{20});
  route = rib.lookup(Ipv6Address::mustParse("2001:db8:5::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->second.origin, net::Asn{65001}); // falls back to /32

  EXPECT_EQ(rib.history().size(), 3u);
  EXPECT_EQ(rib.history()[2].kind, UpdateKind::Withdraw);
}

TEST(Rib, WithdrawUnknownIsNoop) {
  Rib rib;
  rib.withdraw(Prefix::mustParse("2001:db8::/32"), sim::SimTime{0});
  EXPECT_TRUE(rib.history().empty());
  EXPECT_EQ(rib.size(), 0u);
}

TEST(BgpFeed, DelayedDelivery) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 1};
  std::vector<sim::SimTime> arrivals;
  feed.subscribe(PropagationModel{sim::minutes(10), sim::minutes(5)},
                 [&](const BgpUpdate& u) {
                   EXPECT_EQ(u.kind, UpdateKind::Announce);
                   arrivals.push_back(engine.now());
                 });
  engine.schedule(sim::SimTime{0}, [&] {
    feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001});
  });
  engine.runAll();
  // RIB changes immediately; the subscriber sees it after its lag.
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], sim::kEpoch + sim::minutes(10));
  EXPECT_LE(arrivals[0], sim::kEpoch + sim::minutes(15));
}

TEST(BgpFeed, UnsubscribeDropsPendingDeliveries) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 2};
  int delivered = 0;
  const auto id = feed.subscribe(PropagationModel{sim::minutes(1), {}},
                                 [&](const BgpUpdate&) { ++delivered; });
  feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001});
  feed.unsubscribe(id);
  engine.runAll();
  EXPECT_EQ(delivered, 0);
}

TEST(BgpFeed, WithdrawCarriesOrigin) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 3};
  std::vector<BgpUpdate> seen;
  feed.subscribe(PropagationModel{sim::seconds(1), {}},
                 [&](const BgpUpdate& u) { seen.push_back(u); });
  feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65009});
  feed.withdraw(Prefix::mustParse("2001:db8::/32"));
  engine.runAll();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].kind, UpdateKind::Withdraw);
  EXPECT_EQ(seen[1].origin, net::Asn{65009});
}

// A feed with many subscribers of different lag models and many updates —
// announcements and withdrawals at distinct and coinciding instants.
struct FeedFixture {
  static constexpr std::uint64_t kSeed = 0x5eed;
  static constexpr int kSubscribers = 40;

  struct Delivery {
    int subscriber = 0;
    BgpUpdate update;
    sim::SimTime arrivedAt;
  };

  static PropagationModel modelOf(int i) {
    return PropagationModel{sim::seconds(30 + 7 * i), sim::minutes(1 + i % 9)};
  }
  static std::uint64_t keyOf(int i) { return 1000 + 17 * i; }
  static Prefix prefixOf(int u) {
    return Prefix{Ipv6Address{0x2001'0db8'0000'0000ULL |
                                  (static_cast<std::uint64_t>(u % 12) << 16),
                              0},
                  48};
  }
  /// Update u: publish time and kind. Every third update repeats the
  /// previous instant, so same-time publishes interleave their deliveries.
  static sim::SimTime publishAt(int u) {
    return sim::kEpoch + sim::minutes(3 * (u - u / 3));
  }
  static bool isAnnounce(int u) { return u % 5 != 4; }
  static net::Asn originOf(int u) {
    return net::Asn{65000u + static_cast<unsigned>(u)};
  }
  static constexpr int kUpdates = 60;

  sim::Engine engine;
  Rib rib;
  obs::trace::Tracer tracer{obs::trace::TracerOptions{.seed = 99}};
  BgpFeed feed{engine, rib, kSeed};
  std::vector<Delivery> delivered;

  void subscribeAll() {
    for (int i = 0; i < kSubscribers; ++i) {
      feed.subscribe(modelOf(i), keyOf(i), [this, i](const BgpUpdate& u) {
        delivered.push_back({i, u, engine.now()});
      });
    }
  }
  void scheduleUpdates() {
    for (int u = 0; u < kUpdates; ++u) {
      engine.schedule(publishAt(u), [this, u] {
        if (isAnnounce(u)) {
          feed.announce(prefixOf(u), originOf(u));
        } else {
          feed.withdraw(prefixOf(u));
        }
      });
    }
  }
};

// FNV-1a over every field of every delivery, in delivery order.
std::uint64_t deliveryDigest(const std::vector<FeedFixture::Delivery>& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& d : ds) {
    mix(static_cast<std::uint64_t>(d.subscriber));
    mix(d.update.kind == UpdateKind::Announce ? 1 : 0);
    mix(d.update.prefix.address().hi64());
    mix(d.update.prefix.address().lo64());
    mix(d.update.prefix.length());
    mix(d.update.origin.value());
    mix(static_cast<std::uint64_t>(d.update.ts.millis()));
    mix(static_cast<std::uint64_t>(d.update.originTs.millis()));
    mix(d.update.seq);
    mix(d.update.traceId);
    mix(static_cast<std::uint64_t>(d.arrivedAt.millis()));
  }
  return h;
}

TEST(BgpFeed, DeliveredUpdatesMatchPerSubscriberLagReference) {
  FeedFixture f;
  f.feed.bindTrace(&f.tracer);
  f.subscribeAll();
  f.scheduleUpdates();
  f.engine.runAll();

  // Reference: subscriber i draws one lag per update, in publish order,
  // from its own (seed, key) stream; the delivery carries the update as
  // published, stamped with its arrival time. Deliveries run in (arrival,
  // scheduling) order — scheduling is update-major, subscriber-minor.
  std::vector<std::tuple<sim::SimTime, int, int>> expectedOrder;
  std::vector<sim::Rng> rngs;
  for (int i = 0; i < FeedFixture::kSubscribers; ++i) {
    rngs.emplace_back(sim::deriveStreamSeed(FeedFixture::kSeed,
                                            FeedFixture::keyOf(i)));
  }
  for (int u = 0; u < FeedFixture::kUpdates; ++u) {
    for (int i = 0; i < FeedFixture::kSubscribers; ++i) {
      expectedOrder.emplace_back(
          FeedFixture::publishAt(u) + FeedFixture::modelOf(i).sample(rngs[i]),
          u, i);
    }
  }
  std::stable_sort(expectedOrder.begin(), expectedOrder.end(),
                   [](const auto& a, const auto& b) {
                     return std::get<0>(a) < std::get<0>(b);
                   });

  ASSERT_EQ(f.delivered.size(), expectedOrder.size());
  for (std::size_t k = 0; k < expectedOrder.size(); ++k) {
    const auto [when, u, i] = expectedOrder[k];
    const FeedFixture::Delivery& d = f.delivered[k];
    ASSERT_EQ(d.subscriber, i) << "delivery " << k;
    const BgpUpdate& got = d.update;
    EXPECT_EQ(got.kind, FeedFixture::isAnnounce(u) ? UpdateKind::Announce
                                                   : UpdateKind::Withdraw);
    EXPECT_EQ(got.prefix, FeedFixture::prefixOf(u));
    EXPECT_EQ(got.ts, when);
    EXPECT_EQ(d.arrivedAt, when);
    EXPECT_EQ(got.originTs, FeedFixture::publishAt(u));
    EXPECT_EQ(got.seq, static_cast<std::uint64_t>(u));
    EXPECT_EQ(got.traceId, f.tracer.updateTraceId(got.seq));
    if (FeedFixture::isAnnounce(u)) {
      EXPECT_EQ(got.origin, FeedFixture::originOf(u));
    }
  }
  // Every field of the whole delivery sequence, pinned to the value the
  // feed produced when each delivery event carried its own update copy.
  EXPECT_EQ(deliveryDigest(f.delivered), 0x2d8a3bab01241e41ULL);
}

TEST(BgpFeed, UnsubscribeBeforeDeliveryDropsOnlyThatSubscriber) {
  FeedFixture f;
  f.subscribeAll();
  // Subscriber ids are 1-based in subscription order: drop subscriber 7
  // while its first update is still in flight.
  f.engine.schedule(FeedFixture::publishAt(0), [&f] {
    f.feed.announce(FeedFixture::prefixOf(0), net::Asn{65000});
    f.feed.unsubscribe(8);
  });
  f.engine.runAll();
  ASSERT_EQ(f.delivered.size(), FeedFixture::kSubscribers - 1u);
  for (const auto& d : f.delivered) EXPECT_NE(d.subscriber, 7);
  EXPECT_EQ(f.feed.subscriberCount(), FeedFixture::kSubscribers - 1u);
}

TEST(BgpFeed, RetiredSubscriberSeesExactlyTheDeliveriesUpToRetireAfter) {
  // Two feeds on the same seed, one consumer each with the same stream key:
  // the retiring one must see exactly the other's deliveries that arrive
  // at or before retireAfter — same updates, same arrival times.
  const sim::SimTime retireAfter = sim::kEpoch + sim::minutes(50);
  const PropagationModel model{sim::minutes(2), sim::minutes(20)};
  struct Side {
    sim::Engine engine;
    Rib rib;
    obs::Registry metrics;
    BgpFeed feed{engine, rib, 4242};
    std::vector<BgpUpdate> seen;
  };
  Side keep;
  Side retire;
  keep.feed.subscribe(model, 77,
                      [&keep](const BgpUpdate& u) { keep.seen.push_back(u); });
  retire.feed.subscribe(
      model, 77, [&retire](const BgpUpdate& u) { retire.seen.push_back(u); },
      retireAfter);
  for (Side* side : {&keep, &retire}) {
    side->feed.bindMetrics(side->metrics);
    for (int u = 0; u < 40; ++u) {
      side->engine.schedule(sim::kEpoch + sim::minutes(2 * u), [side, u] {
        side->feed.announce(FeedFixture::prefixOf(u), net::Asn{65001});
      });
    }
    side->engine.runAll();
  }

  std::vector<BgpUpdate> expected;
  for (const BgpUpdate& u : keep.seen) {
    if (u.ts <= retireAfter) expected.push_back(u);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), keep.seen.size());
  ASSERT_EQ(retire.seen.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(retire.seen[k].ts, expected[k].ts);
    EXPECT_EQ(retire.seen[k].seq, expected[k].seq);
    EXPECT_EQ(retire.seen[k].prefix, expected[k].prefix);
  }
  // A skipped delivery is never scheduled: the delivery counter and the
  // engine's event count drop by the same amount.
  const std::size_t skipped = keep.seen.size() - expected.size();
  EXPECT_EQ(*keep.metrics.value("bgp.feed.deliveries_total") -
                *retire.metrics.value("bgp.feed.deliveries_total"),
            static_cast<double>(skipped));
  EXPECT_EQ(keep.engine.executedEvents() - retire.engine.executedEvents(),
            skipped);
  // The first update published past retireAfter retires the subscription.
  EXPECT_EQ(keep.feed.subscriberCount(), 1u);
  EXPECT_EQ(retire.feed.subscriberCount(), 0u);
}

TEST(BgpFeed, DeliveryExactlyAtRetireAfterStillArrives) {
  // learnPrefix accepts now == activeUntil, so the feed must too.
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 5};
  const sim::SimTime retireAfter = sim::kEpoch + sim::minutes(10);
  std::vector<sim::SimTime> arrivals;
  feed.subscribe(PropagationModel{sim::minutes(4), {}}, 1,
                 [&](const BgpUpdate& u) { arrivals.push_back(u.ts); },
                 retireAfter);
  for (const int minute : {6, 7}) {
    engine.schedule(sim::kEpoch + sim::minutes(minute), [&feed] {
      feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001});
    });
  }
  engine.runAll();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], retireAfter);
  EXPECT_EQ(feed.subscriberCount(), 1u); // nothing published past it yet
}

// ------------------------------------------------------------ SplitSchedule

SplitSchedule::Params scheduleParams() {
  SplitSchedule::Params params;
  params.base = Prefix::mustParse("2001:db8::/32");
  params.start = sim::kEpoch;
  params.baseline = sim::weeks(12);
  params.cycle = sim::weeks(2);
  params.withdrawGap = sim::days(1);
  params.splits = 16;
  return params;
}

TEST(SplitSchedule, PaperShape) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  ASSERT_EQ(schedule.cycles().size(), 17u); // baseline + 16 splits

  // Final cycle: 17 prefixes, most specific /48.
  const AnnouncementCycle& last = schedule.cycles().back();
  EXPECT_EQ(last.announced.size(), 17u);
  unsigned maxLen = 0;
  for (const Prefix& p : last.announced) maxLen = std::max(maxLen, p.length());
  EXPECT_EQ(maxLen, 48u);

  // Each cycle adds exactly one prefix.
  for (std::size_t i = 1; i < schedule.cycles().size(); ++i) {
    EXPECT_EQ(schedule.cycles()[i].announced.size(), i + 1);
  }
}

TEST(SplitSchedule, SplitsAvoidLowByteChild) {
  // The child containing the parent's low-byte (::1) address is kept; the
  // other child is split next (§3.1).
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  for (std::size_t i = 1; i + 1 < schedule.cycles().size(); ++i) {
    const AnnouncementCycle& cycle = schedule.cycles()[i];
    const AnnouncementCycle& next = schedule.cycles()[i + 1];
    const auto [lower, upper] = cycle.splitParent.split();
    EXPECT_TRUE(lower.contains(cycle.splitParent.lowByteAddress()));
    EXPECT_EQ(next.splitParent, upper); // the non-low-byte child is split
  }
}

TEST(SplitSchedule, AllButTwoDifferInSize) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  const auto& last = schedule.cycles().back().announced;
  std::map<unsigned, int> byLength;
  for (const Prefix& p : last) ++byLength[p.length()];
  int pairs = 0;
  for (const auto& [len, count] : byLength) {
    if (count == 2) ++pairs;
    else EXPECT_EQ(count, 1);
  }
  EXPECT_EQ(pairs, 1); // exactly the two /48s share a size
}

TEST(SplitSchedule, Timing) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  const auto& cycles = schedule.cycles();
  EXPECT_EQ(cycles[0].announceAt, sim::kEpoch);
  EXPECT_EQ(cycles[0].endsAt, sim::kEpoch + sim::weeks(12));
  EXPECT_EQ(cycles[1].withdrawAt, cycles[0].endsAt);
  EXPECT_EQ(cycles[1].announceAt, cycles[0].endsAt + sim::days(1));
  EXPECT_EQ(cycles[1].endsAt, cycles[1].announceAt + sim::weeks(2));
  // cycleAt: inside a cycle, in the withdraw gap, before start.
  EXPECT_EQ(schedule.cycleAt(sim::kEpoch + sim::weeks(1)), &cycles[0]);
  EXPECT_EQ(schedule.cycleAt(cycles[1].withdrawAt + sim::hours(2)), nullptr);
  EXPECT_EQ(schedule.cycleAt(cycles[1].announceAt), &cycles[1]);
}

TEST(SplitSchedule, AllPrefixesEverAnnounced) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  // 1 (/32) + 2 new per cycle except they share... base + 16 cycles à 2 new
  // children = 33 distinct prefixes.
  EXPECT_EQ(schedule.allPrefixesEverAnnounced().size(), 33u);
}

TEST(SplitController, DrivesRib) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 4};
  SplitSchedule::Params params = scheduleParams();
  params.splits = 3;
  SplitController controller{engine, feed, SplitSchedule::make(params),
                             net::Asn{65001}};
  controller.arm();

  // During the baseline: only the /32.
  engine.run(sim::kEpoch + sim::weeks(1));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));

  // On the withdraw day: nothing routable.
  engine.run(sim::kEpoch + sim::weeks(12) + sim::hours(2));
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_FALSE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));

  // First split cycle: two /33s.
  engine.run(sim::kEpoch + sim::weeks(13));
  EXPECT_EQ(rib.size(), 2u);
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8:8000::1")));

  // Last cycle of this shortened schedule: 4 prefixes.
  engine.run(controller.schedule().endOfExperiment());
  EXPECT_EQ(rib.size(), 4u);
}

// ------------------------------------------------------------- Hitlist

TEST(Hitlist, ListsAfterDelay) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 5};
  HitlistService::Params params;
  params.listingDelay = sim::days(5);
  params.jitter = sim::days(2);
  HitlistService hitlist{engine, feed, params, 6};

  std::vector<std::pair<Prefix, sim::SimTime>> listed;
  hitlist.onListed([&](const Prefix& p, sim::SimTime t) {
    listed.emplace_back(p, t);
  });

  const Prefix p = Prefix::mustParse("2001:db8::/32");
  engine.schedule(sim::SimTime{0}, [&] { feed.announce(p, net::Asn{65001}); });
  engine.run(sim::kEpoch + sim::days(4));
  EXPECT_FALSE(hitlist.isListed(p, engine.now()));
  engine.run(sim::kEpoch + sim::days(10));
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_TRUE(hitlist.isListed(p, engine.now()));
  EXPECT_GE(listed[0].second, sim::kEpoch + sim::days(5));
  EXPECT_LE(listed[0].second, sim::kEpoch + sim::days(7) + sim::hours(1));
  ASSERT_TRUE(hitlist.listedAt(p).has_value());
  EXPECT_EQ(*hitlist.listedAt(p), listed[0].second);
}

TEST(Hitlist, ReannouncementKeepsEntry) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 7};
  HitlistService hitlist{engine, feed, {}, 8};
  const Prefix p = Prefix::mustParse("2001:db8::/32");
  engine.schedule(sim::SimTime{0}, [&] { feed.announce(p, net::Asn{65001}); });
  engine.run(sim::kEpoch + sim::days(14));
  const auto first = hitlist.listedAt(p);
  ASSERT_TRUE(first.has_value());
  // Withdraw + re-announce: the listing time must not change.
  feed.withdraw(p);
  feed.announce(p, net::Asn{65001});
  engine.run(sim::kEpoch + sim::days(30));
  EXPECT_EQ(hitlist.listedAt(p), first);
  EXPECT_EQ(hitlist.listedPrefixes(engine.now()).size(), 1u);
}

// ------------------------------------------------------------ IRR / RPKI

TEST(Irr, Route6Lookup) {
  IrrRegistry irr;
  const Prefix p = Prefix::mustParse("2001:db8::/33");
  irr.addRoute6(p, net::Asn{65001}, sim::SimTime{100});
  EXPECT_FALSE(irr.hasRoute6(p, net::Asn{65001}, sim::SimTime{50}));
  EXPECT_TRUE(irr.hasRoute6(p, net::Asn{65001}, sim::SimTime{100}));
  EXPECT_FALSE(irr.hasRoute6(p, net::Asn{65002}, sim::SimTime{100}));
  // A covering route object validates the more-specific announcement too.
  EXPECT_TRUE(irr.hasRoute6(Prefix::mustParse("2001:db8:0:1::/64"),
                            net::Asn{65001}, sim::SimTime{200}));
}

TEST(Irr, RpkiValidation) {
  IrrRegistry irr;
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8::/32"), net::Asn{65001},
                         sim::SimTime{0}),
            RpkiValidity::NotFound);
  irr.addRoa(Prefix::mustParse("2001:db8::/32"), 40, net::Asn{65001},
             sim::SimTime{0});
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8::/32"), net::Asn{65001},
                         sim::SimTime{1}),
            RpkiValidity::Valid);
  // Too specific for maxLength.
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8:5::/48"),
                         net::Asn{65001}, sim::SimTime{1}),
            RpkiValidity::Invalid);
  // Wrong origin.
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8::/32"), net::Asn{65002},
                         sim::SimTime{1}),
            RpkiValidity::Invalid);
  // Uncovered space.
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db9::/32"), net::Asn{65001},
                         sim::SimTime{1}),
            RpkiValidity::NotFound);
}

} // namespace
} // namespace v6t::bgp

// Appended: looking-glass visibility checks (§3.2).
#include "bgp/looking_glass.hpp"

namespace v6t::bgp {
namespace {

TEST(LookingGlass, TracksConvergencePerVantagePoint) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 9};
  LookingGlass lg{engine,
                  feed,
                  {{"fast", {sim::seconds(10), sim::seconds(5)}},
                   {"slow", {sim::minutes(30), sim::minutes(5)}}}};
  ASSERT_EQ(lg.vantagePointCount(), 2u);
  const net::Prefix p = net::Prefix::mustParse("3fff:100::/32");

  engine.schedule(sim::kEpoch, [&] { feed.announce(p, net::Asn{65010}); });
  // Before anything propagates: invisible everywhere.
  EXPECT_EQ(lg.visibleAt(p), 0u);

  engine.run(sim::kEpoch + sim::minutes(1));
  EXPECT_EQ(lg.visibleAt(p), 1u); // only the fast vantage point
  EXPECT_FALSE(lg.fullyVisible(p));
  ASSERT_EQ(lg.missingAt(p).size(), 1u);
  EXPECT_EQ(lg.missingAt(p)[0], "slow");

  engine.run(sim::kEpoch + sim::hours(1));
  EXPECT_TRUE(lg.fullyVisible(p));

  // Withdrawal converges the same way.
  feed.withdraw(p);
  engine.run(sim::kEpoch + sim::hours(3));
  EXPECT_EQ(lg.visibleAt(p), 0u);
}

TEST(LookingGlass, MoreSpecificVisibleThroughCoveringRoute) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 10};
  LookingGlass lg{engine, feed, {{"vp", {sim::seconds(1), {}}}}};
  feed.announce(net::Prefix::mustParse("3fff:e00::/29"), net::Asn{65020});
  engine.run(sim::kEpoch + sim::minutes(1));
  // A covered /48 is reachable (covering route) even though never
  // announced itself — the T3 situation.
  EXPECT_EQ(lg.visibleAt(net::Prefix::mustParse("3fff:e03:3::/48")), 1u);
}

} // namespace
} // namespace v6t::bgp
