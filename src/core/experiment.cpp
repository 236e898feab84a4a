#include "core/experiment.hpp"

#include "core/metrics.hpp"

namespace v6t::core {

std::array<std::unique_ptr<telescope::Telescope>, 4> makeTelescopes(
    const ExperimentConfig& config) {
  std::array<std::unique_ptr<telescope::Telescope>, 4> telescopes;
  telescopes[T1] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T1",
                                 {config.t1Base},
                                 telescope::Mode::Passive,
                                 std::nullopt,
                                 std::nullopt});
  telescopes[T2] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T2",
                                 {config.t2Prefix},
                                 telescope::Mode::Traceable,
                                 config.t2Productive,
                                 config.t2Attractor});
  telescopes[T3] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T3",
                                 {config.t3Prefix},
                                 telescope::Mode::Passive,
                                 std::nullopt,
                                 std::nullopt});
  telescopes[T4] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T4",
                                 {config.t4Prefix},
                                 telescope::Mode::Active,
                                 std::nullopt,
                                 std::nullopt});
  return telescopes;
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  tracer_ = std::make_unique<obs::trace::Tracer>(
      obs::trace::TracerOptions{config_.seed, config_.traceRingSize,
                                config_.traceEnabled, config_.traceRetainAll,
                                /*controlPlaneOwner=*/true},
      &metrics_);
  feed_ = std::make_unique<bgp::BgpFeed>(engine_, rib_, config_.seed ^ 0xfeed);
  feed_->bindMetrics(metrics_);
  feed_->bindTrace(tracer_.get());
  hitlist_ = std::make_unique<bgp::HitlistService>(
      engine_, *feed_, bgp::HitlistService::Params{}, config_.seed ^ 0x417);
  fabric_ = std::make_unique<telescope::DeliveryFabric>(engine_, rib_);

  telescopes_ = makeTelescopes(config_);
  for (std::size_t i = 0; i < telescopes_.size(); ++i) {
    // Telescope trace rows start at 1000 so they never collide with
    // scanner ids in the exported per-thread lanes.
    telescopes_[i]->bindTrace(tracer_.get(),
                              static_cast<std::uint32_t>(1000 + i));
    fabric_->attach(*telescopes_[i]);
  }

  // The split schedule for T1.
  bgp::SplitSchedule::Params scheduleParams;
  scheduleParams.base = config_.t1Base;
  scheduleParams.start = sim::kEpoch;
  scheduleParams.baseline = config_.baseline;
  scheduleParams.cycle = config_.cycle;
  scheduleParams.withdrawGap = config_.withdrawGap;
  scheduleParams.splits = config_.splits;
  controller_ = std::make_unique<bgp::SplitController>(
      engine_, *feed_, bgp::SplitSchedule::make(scheduleParams),
      config_.ourAsn);

  // The population.
  scanner::PopulationParams populationParams;
  populationParams.seed = config_.seed;
  populationParams.sourceScale = config_.sourceScale;
  populationParams.volumeScale = config_.volumeScale;
  populationParams.t1Base = config_.t1Base;
  populationParams.t2Prefix = config_.t2Prefix;
  populationParams.t2Attractor = config_.t2Attractor;
  populationParams.t3Prefix = config_.t3Prefix;
  populationParams.t4Prefix = config_.t4Prefix;
  populationParams.coveringPrefix = config_.covering;
  populationParams.start = sim::kEpoch;
  populationParams.end = controller_->schedule().endOfExperiment();
  scanner::PopulationBuilder builder{populationParams};
  population_ = scanner::instantiate(builder.plan(), engine_, *fabric_);
}

std::array<const telescope::Telescope*, 4> Experiment::telescopes() const {
  return {telescopes_[0].get(), telescopes_[1].get(), telescopes_[2].get(),
          telescopes_[3].get()};
}

sim::SimTime Experiment::experimentEnd() const {
  return controller_->schedule().endOfExperiment();
}

void Experiment::run() {
  if (ran_) return;
  ran_ = true;

  // t = 0: the long-standing announcements exist from the first instant.
  feed_->announce(config_.t2Prefix, config_.ourAsn);
  feed_->announce(config_.covering, config_.coveringAsn);

  // The T1 split schedule (cycle 0 announces the /32 at t = 0 as well).
  controller_->arm();

  // Route6 object for the stable /33, four months in (§3.2) — recorded so
  // its (absent) effect can be evaluated, exactly the paper's negative
  // result.
  engine_.scheduleInline(sim::kEpoch + config_.routeObjectAt, [this]() {
    const auto [lower, upper] = config_.t1Base.split();
    irr_.addRoute6(lower, config_.ourAsn, engine_.now());
  });

  // Agents online.
  population_.startAll(feed_.get(), hitlist_.get(), tracer_.get());

  const sim::SimTime end =
      config_.runLimit ? sim::kEpoch + *config_.runLimit : experimentEnd();
  {
    obs::Span span(metrics_, "experiment.phase.run_seconds");
    engine_.run(end);
  }
  ComponentSampler{metrics_}.sample(engine_, rib_, *fabric_, telescopes_);
}

} // namespace v6t::core
