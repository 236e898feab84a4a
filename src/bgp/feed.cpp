#include "bgp/feed.hpp"

namespace v6t::bgp {

BgpFeed::SubscriberId BgpFeed::subscribe(PropagationModel model,
                                         std::uint64_t streamKey,
                                         Callback cb,
                                         sim::SimTime retireAfter) {
  const SubscriberId id = nextId_++;
  subscribers_.emplace(
      id, Subscriber{model, std::move(cb),
                     sim::Rng{sim::deriveStreamSeed(seed_, streamKey)},
                     retireAfter});
  return id;
}

BgpFeed::SubscriberId BgpFeed::subscribe(PropagationModel model, Callback cb) {
  // Counter-derived key: deterministic within one feed instance, but tied to
  // subscription order — consumers that must survive sharding pass a key.
  return subscribe(model, 0x5559bbbf00000000ULL | nextId_, std::move(cb));
}

void BgpFeed::unsubscribe(SubscriberId id) { subscribers_.erase(id); }

void BgpFeed::bindMetrics(obs::Registry& registry) {
  announcesMetric_ = &registry.counter("bgp.feed.announces_total");
  withdrawsMetric_ = &registry.counter("bgp.feed.withdraws_total");
  deliveriesMetric_ = &registry.counter("bgp.feed.deliveries_total");
  delayMetric_ = &registry.histogram("bgp.feed.convergence_delay_seconds",
                                     obs::delayBoundsSeconds());
}

void BgpFeed::stampTrace(BgpUpdate& update, sim::SimTime now) {
  update.seq = updateSeq_++;
  update.originTs = now;
  if (tracer_ == nullptr) return;
  update.traceId = tracer_->updateTraceId(update.seq);
  // Every shard replays the same script and stamps the same IDs, but only
  // the control-plane owner emits the root — one root per update, run-wide.
  if (tracer_->controlPlaneOwner()) {
    tracer_->record({now.millis(), update.traceId,
                     update.prefix.address().hi64(),
                     (static_cast<std::uint64_t>(update.prefix.length()) << 32) |
                         (update.kind == UpdateKind::Announce ? 1u : 0u),
                     0, obs::trace::EventKind::BgpUpdateRoot,
                     obs::trace::ClockDomain::Sim});
  }
}

void BgpFeed::announce(const net::Prefix& prefix, net::Asn origin) {
  const sim::SimTime now = engine_.now();
  rib_.announce(prefix, origin, now);
  if (announcesMetric_ != nullptr) announcesMetric_->inc();
  BgpUpdate update{UpdateKind::Announce, prefix, origin, now, now, 0, 0};
  stampTrace(update, now);
  publish(update);
}

void BgpFeed::withdraw(const net::Prefix& prefix) {
  const sim::SimTime now = engine_.now();
  const RouteEntry* entry = rib_.findExact(prefix);
  const net::Asn origin = entry != nullptr ? entry->origin : net::Asn{};
  rib_.withdraw(prefix, now);
  if (withdrawsMetric_ != nullptr) withdrawsMetric_->inc();
  BgpUpdate update{UpdateKind::Withdraw, prefix, origin, now, now, 0, 0};
  stampTrace(update, now);
  publish(update);
}

void BgpFeed::publish(const BgpUpdate& update) {
  const sim::SimTime now = engine_.now();
  const auto index = static_cast<std::uint32_t>(published_.size());
  published_.push_back(update);
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    Subscriber& sub = it->second;
    if (now > sub.retireAfter) {
      // Every delivery scheduled earlier landed at or before retireAfter,
      // so none is in flight; every later one would land past it.
      it = subscribers_.erase(it);
      continue;
    }
    const SubscriberId sid = it->first;
    ++it;
    const sim::Duration delay = sub.model.sample(sub.rng);
    if (now + delay > sub.retireAfter) continue;
    if (delayMetric_ != nullptr) {
      delayMetric_->observe(static_cast<double>(delay.millis()) / 1000.0);
      deliveriesMetric_->inc();
    }
    // Route through the id: the subscriber may unsubscribe before delivery,
    // in which case the update must be dropped.
    engine_.scheduleInline(now + delay,
                           [this, sid, index]() { deliver(sid, index); });
  }
}

void BgpFeed::deliver(SubscriberId sid, std::uint32_t index) {
  const auto it = subscribers_.find(sid);
  if (it == subscribers_.end()) return;
  // Lags are never negative, so the schedule was not clamped: now() is
  // exactly the publish time plus the lag.
  BgpUpdate delivered = published_[index];
  delivered.ts = engine_.now();
  it->second.cb(delivered);
}

} // namespace v6t::bgp
