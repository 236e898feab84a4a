#include "batch.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "common.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"
#include "serve_mix.hpp"
#include "telescope/digest.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace v6t;

struct Report {
  std::array<std::uint64_t, 4> captureDigests{};
  std::uint64_t reportDigest = telescope::kFnvBasis;
  double sessionizeS = 0.0;
  double indexBuildS = 0.0;
  double taxonomyS = 0.0;
  double streamS = 0.0;
};

/// The report v6t_run prints: summary sessionization plus the
/// per-telescope pipeline in memory, the streaming analyzer over the
/// merged segment cursors in spill mode.
Report buildReport(core::ExperimentRunner& runner, SpanRecorder& rec) {
  Report out;
  const core::ExperimentConfig& config = runner.config().experiment;
  const unsigned threads = config.effectiveAnalysisThreads();
  obs::Registry& metrics = runner.metrics();
  std::array<std::string, 4> names;
  for (std::size_t t = 0; t < 4; ++t) names[t] = runner.telescopeName(t);

  if (runner.spillEnabled()) {
    for (std::size_t t = 0; t < 4; ++t) {
      ScopedSpan span{rec, "analysis.stream." + names[t]};
      analysis::StreamingOptions opts;
      opts.threads = threads;
      opts.metrics = &metrics;
      opts.captureGaps = config.faults.gapWindowsFor(t);
      analysis::StreamingAnalyzer analyzer{opts};
      auto cursor = runner.streamCapture(t);
      analyzer.ingestAll(cursor);
      telescope::fnv1aMix(out.reportDigest, analyzer.finish().digest());
      out.streamS += span.stop();
    }
    return out;
  }

  const std::array<const telescope::CaptureStore*, 4> captures =
      runner.captures();
  std::optional<core::ExperimentSummary> summary;
  {
    ScopedSpan span{rec, "analysis.sessionize"};
    summary = core::ExperimentSummary::compute(captures, names, config.faults,
                                               threads);
    core::collectSummaryMetrics(*summary, metrics);
    out.sessionizeS = span.stop();
  }
  analysis::PipelineOptions opts;
  opts.threads = threads;
  opts.minSplitCost = config.analysisMinSplitCost;
  opts.fingerprint = false; // the overview needs taxonomy + heavy hitters
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& sessions = summary->telescope(t).sessions128;
    std::optional<analysis::Pipeline> pipeline;
    {
      ScopedSpan span{rec, "analysis.index_build." + names[t]};
      pipeline.emplace(captures[t]->packets(), sessions, &metrics);
      out.indexBuildS += span.stop();
    }
    ScopedSpan span{rec, "analysis.taxonomy." + names[t]};
    const analysis::PipelineResult result =
        pipeline->run(t == core::T1 ? &runner.schedule() : nullptr, opts);
    out.taxonomyS += span.stop();
    telescope::fnv1aMix(out.reportDigest, result.digest());
    telescope::fnv1aMix(out.reportDigest, sessions.size());
    telescope::fnv1aMix(out.reportDigest,
                        summary->telescope(t).sessions64.size());
  }
  return out;
}

double flat(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

} // namespace

int runBatch(const BatchArgs& args) {
  const WorkloadSpec spec = makeWorkload(args.workload, args.seed, args.smoke);
  SpanRecorder rec{args.trace};
  const std::string tag = args.shards == 1 ? "reference" : "measured";
  ScopedSpan rootSpan{rec, "batch." + tag};

  core::RunnerConfig rc;
  rc.experiment = spec.config;
  rc.experiment.threads = args.shards;
  // The reference differs from a measured run in its shard count only;
  // analysis results are identical at any worker count.
  rc.experiment.analysisThreads = args.cores;
  const fs::path spillDir =
      fs::path{args.workDir} / ("spill-" + std::to_string(::getpid()));
  if (spec.spillBytes != 0) {
    rc.experiment.captureSpillDir = spillDir.string();
    rc.experiment.captureSpillBytes = spec.spillBytes;
  }

  // Set-up: the runner constructor builds the split schedule and the
  // population plan. Built once, as v6t_run does, so the run and the
  // report below start from the heap a user's run has.
  std::unique_ptr<core::ExperimentRunner> runner;
  double setupSeconds = 0.0;
  {
    ScopedSpan span{rec, "core.plan"};
    runner = std::make_unique<core::ExperimentRunner>(rc);
    setupSeconds = span.stop();
  }

  Report report;
  double timeToReport = 0.0;
  {
    ScopedSpan reportSpan{rec, "time_to_report"};
    {
      ScopedSpan span{rec, "core.run"};
      runner->run();
    }
    report = buildReport(*runner, rec);
    timeToReport = reportSpan.stop();
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  // Correctness inputs: per-telescope capture digests. In spill mode this
  // drains the merged segment cursors — the telescope.stream_read_s layer.
  double streamReadS = 0.0;
  for (std::size_t t = 0; t < 4; ++t) {
    if (runner->spillEnabled()) {
      ScopedSpan span{rec, "telescope.stream_read." + runner->telescopeName(t)};
      std::uint64_t h = telescope::kFnvBasis;
      auto cursor = runner->streamCapture(t);
      if (!cursor.empty()) {
        do {
          telescope::fnv1aPacket(h, cursor.head());
        } while (cursor.advance());
      }
      report.captureDigests[t] = h;
      streamReadS += span.stop();
    } else {
      report.captureDigests[t] = runner->capture(t).digest();
    }
  }

  const core::RunnerStats& stats = runner->stats();
  double sumWall = 0.0;
  double sumWait = 0.0;
  double maxBusy = 0.0;
  for (const core::ShardStats& s : stats.shards) {
    sumWall += s.wallSeconds;
    sumWait += s.barrierWaitSeconds;
    maxBusy = std::max(maxBusy, s.wallSeconds - s.barrierWaitSeconds);
  }
  const double meanBusy =
      stats.shards.empty()
          ? 0.0
          : (sumWall - sumWait) / static_cast<double>(stats.shards.size());
  const std::map<std::string, double> m = runner->metrics().flatten();
  double captured = 0.0;
  for (std::size_t t = 0; t < 4; ++t) {
    captured += flat(m, "telescope." + runner->telescopeName(t) +
                            ".packets_total");
  }
  const unsigned analysisThreads =
      runner->config().experiment.effectiveAnalysisThreads();
  const double makespan = flat(m, "analysis.sched.makespan_seconds");

  JsonObject out;
  out.str("kind", "batch");
  out.str("role", tag);
  out.str("workload", spec.name);
  out.integer("seed", args.seed);
  out.integer("shards", args.shards);
  out.str("config_hash", hex64(configHash(spec)));
  out.num("setup_s", setupSeconds);
  out.num("time_to_report_s", timeToReport);
  addUsage(out, usage);
  out.num("core.plan_s", setupSeconds);
  out.num("core.epochs_s", stats.runWallSeconds);
  out.num("core.merge_s", stats.mergeWallSeconds);
  out.num("core.barrier_wait_share", sumWall > 0 ? sumWait / sumWall : 0.0);
  out.num("core.busy_imbalance", meanBusy > 0 ? maxBusy / meanBusy : 0.0);
  const double events = flat(m, "sim.events_total");
  const double deliveries = flat(m, "bgp.feed.deliveries_total");
  out.num("sim.events", events);
  out.num("sim.queue_high_water", flat(m, "sim.queue_depth_high_water"));
  out.num("bgp.deliveries", deliveries);
  out.num("bgp.delivery_share", events > 0 ? deliveries / events : 0.0);
  out.num("bgp.useful_delivery_ratio",
          deliveries > 0
              ? flat(m, "bgp.reaction_delay_seconds.all.count") / deliveries
              : 0.0);
  out.num("fabric.packets_sent", flat(m, "fabric.packets_sent_total"));
  out.num("fabric.dropped_no_route", flat(m, "fabric.dropped_no_route_total"));
  out.num("telescope.packets_captured", captured);
  out.num("telescope.spill_flush_s",
          flat(m, "capture.spill.flush_seconds.sum"));
  out.num("telescope.spill_compact_s",
          flat(m, "capture.spill.compact_seconds.sum"));
  out.num("telescope.spill_bytes", flat(m, "capture.spill.bytes_total"));
  out.num("telescope.segments", flat(m, "capture.spill.segments_total"));
  out.num("telescope.stream_read_s", streamReadS);
  out.num("analysis.sessionize_s", report.sessionizeS);
  out.num("analysis.index_build_s", report.indexBuildS);
  out.num("analysis.taxonomy_s", report.taxonomyS);
  out.num("analysis.stream_s", report.streamS);
  out.num("analysis.sched_efficiency",
          makespan > 0 ? flat(m, "analysis.worker.busy_seconds") /
                             (makespan * analysisThreads)
                       : 0.0);
  std::string digests = "[";
  for (std::size_t t = 0; t < 4; ++t) {
    if (t != 0) digests += ',';
    digests += "\"" + hex64(report.captureDigests[t]) + "\"";
  }
  out.raw("capture_digests", digests + "]");
  out.str("report_digest", hex64(report.reportDigest));

  if (!args.dumpT1.empty()) {
    if (runner->spillEnabled()) {
      std::cerr << "capture dumps need an in-memory workload\n";
      return 2;
    }
    std::ofstream file{args.dumpT1, std::ios::binary};
    runner->capture(core::T1).writeTo(file);
    if (!file) {
      std::cerr << "cannot write " << args.dumpT1 << "\n";
      return 1;
    }
  }

  if (args.serveIterations > 0) {
    // Query the run's own T1 result with the query_mix traffic.
    std::vector<net::Packet> streamed;
    std::span<const net::Packet> t1;
    ScopedSpan load{rec, "serve.load"};
    if (runner->spillEnabled()) {
      streamed.reserve(runner->capturePacketCount(core::T1));
      auto cursor = runner->streamCapture(core::T1);
      if (!cursor.empty()) {
        do {
          streamed.push_back(cursor.head());
        } while (cursor.advance());
      }
      t1 = streamed;
    } else {
      t1 = runner->capture(core::T1).packets();
    }
    const double loadSeconds = load.stop();
    ServeMixOptions opts;
    opts.seed = args.seed;
    opts.smoke = args.smoke;
    opts.iterations = args.serveIterations;
    opts.ladder = args.ladder;
    opts.cores = args.cores;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    out.raw("serve", serveMix(t1, loadSeconds, &runner->schedule(), opts,
                              rec, attempted, failed));
    out.integer("serve_attempted", attempted);
    out.integer("serve_failed", failed);
  }

  rootSpan.stop();
  if (rec.enabled()) out.raw("spans", spansJson(rec.spans()));
  runner.reset();
  if (spec.spillBytes != 0) fs::remove_all(spillDir);
  std::cout << out.str() << std::endl;
  return 0;
}

} // namespace perfbench
