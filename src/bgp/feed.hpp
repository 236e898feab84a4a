// v6t::bgp — BGP update propagation.
//
// The experiment's announcements do not become visible everywhere at once:
// route propagation through the DFZ takes seconds to minutes, and scanners
// that consume route collectors (RIS/RouteViews style) see updates with an
// additional collection lag of minutes to hours. BgpFeed models both: the
// origin RIB is updated immediately, and each subscriber receives the
// update after its own convergence delay.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/update.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace v6t::bgp {

/// How quickly a subscriber learns about routing changes.
struct PropagationModel {
  sim::Duration base = sim::seconds(30); // minimum propagation time
  sim::Duration jitter = sim::minutes(10); // uniform extra lag

  [[nodiscard]] sim::Duration sample(sim::Rng& rng) const {
    const auto extra = static_cast<std::int64_t>(
        rng.uniform() * static_cast<double>(jitter.millis()));
    return base + sim::millis(extra);
  }
};

class BgpFeed {
public:
  using SubscriberId = std::uint64_t;
  using Callback = std::function<void(const BgpUpdate&)>;

  BgpFeed(sim::Engine& engine, Rib& rib, std::uint64_t seed)
      : engine_(engine), rib_(rib), seed_(seed) {}

  /// Register a consumer; `model` determines its visibility lag. The lag of
  /// every delivered update is drawn from a private RNG stream derived from
  /// (feed seed, streamKey): a consumer with a stable key sees the same lag
  /// sequence regardless of which other consumers exist. This is the
  /// invariant the sharded experiment runner builds on — a scanner keyed by
  /// its id behaves identically whether it shares the feed with the whole
  /// population or with a 1/N shard of it.
  /// `retireAfter` is the last instant the consumer acts on an update:
  /// later deliveries are never scheduled (their lags are still drawn), and
  /// the first update published after it drops the subscription.
  SubscriberId subscribe(PropagationModel model, std::uint64_t streamKey,
                         Callback cb, sim::SimTime retireAfter = sim::kNever);

  /// Convenience for consumers without a natural stable key (tests, ad-hoc
  /// probes): keys off the subscription counter. Not shard-invariant.
  SubscriberId subscribe(PropagationModel model, Callback cb);

  void unsubscribe(SubscriberId id);

  /// Announce at the origin: the RIB changes now; subscribers are notified
  /// after their sampled propagation delay.
  void announce(const net::Prefix& prefix, net::Asn origin);
  void withdraw(const net::Prefix& prefix);

  [[nodiscard]] const Rib& rib() const { return rib_; }
  [[nodiscard]] std::size_t subscriberCount() const {
    return subscribers_.size();
  }

  /// Attach run-time metrics: update counters plus a histogram of the
  /// per-subscriber convergence delays the propagation model samples.
  /// Purely observational — the sampled delays are recorded, not altered —
  /// so binding (or not) cannot change simulation behavior. The registry
  /// must outlive the feed.
  void bindMetrics(obs::Registry& registry);

  /// Attach the flight recorder: every update gets a deterministic trace ID
  /// stamped (a pure function of seed and sequence number — stamping happens
  /// whether or not recording is enabled, so traced and untraced runs follow
  /// identical code paths), and the control-plane-owning tracer records one
  /// BgpUpdateRoot per update. The tracer must outlive the feed.
  void bindTrace(obs::trace::Tracer* tracer) { tracer_ = tracer; }

private:
  struct Subscriber {
    PropagationModel model;
    Callback cb;
    sim::Rng rng; // private lag stream, derived from (seed_, streamKey)
    sim::SimTime retireAfter;
  };

  void publish(const BgpUpdate& update);
  /// Hand published_[index], stamped with the arrival time, to `sid`.
  void deliver(SubscriberId sid, std::uint32_t index);
  /// Assign seq/originTs/traceId and record the trace root.
  void stampTrace(BgpUpdate& update, sim::SimTime now);

  sim::Engine& engine_;
  Rib& rib_;
  std::uint64_t seed_;
  SubscriberId nextId_ = 1;
  std::uint64_t updateSeq_ = 0;
  obs::trace::Tracer* tracer_ = nullptr;
  obs::Counter* announcesMetric_ = nullptr;
  obs::Counter* withdrawsMetric_ = nullptr;
  obs::Counter* deliveriesMetric_ = nullptr;
  obs::Histogram* delayMetric_ = nullptr;
  // Ordered map: subscriber notification order must be deterministic for
  // reproducible runs (each lag comes from the subscriber's own stream, so
  // the order affects only same-instant event sequencing).
  std::map<SubscriberId, Subscriber> subscribers_;
  // Every update published, in order. Delivery events carry an index into
  // it: a BgpUpdate copy would not fit the engine's inline action buffer.
  std::vector<BgpUpdate> published_;
};

} // namespace v6t::bgp
