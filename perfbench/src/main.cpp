// v6t_perfbench — the process perfbench/run.py drives. One invocation is
// one measured unit; it prints a single JSON line on stdout.
//
//   v6t_perfbench batch --workload W --seed N --shards N --work DIR
//                       [--iterations N] [--cores N]
//                       [--dump-t1 FILE] [--ladder] [--smoke] [--trace]
//   v6t_perfbench serve --workload W --seed N --capture FILE --iterations N
//                       [--cores N] [--ladder] [--smoke] [--trace]
//                       [--corrupt-reference]
//
//   v6t_perfbench version      (compiler and build flags, for provenance)
//
// `batch` constructs the sharded runner (timed), runs the
// timeline and builds the report as v6t_run does. `serve` loads a .v6tcap
// capture and measures the query service over it (serve_mix.hpp).

#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "batch.hpp"
#include "common.hpp"
#include "serve_mix.hpp"
#include "telescope/capture_store.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: v6t_perfbench batch|serve --workload W --seed N ...\n";
  return 2;
}

int runServe(const std::string& workload, std::uint64_t seed,
             const std::string& capture, ServeMixOptions opts, bool trace) {
  const WorkloadSpec spec = makeWorkload(workload, seed, opts.smoke);
  // The schedule is pure data from the timeline parameters, as in
  // v6t_serve: no simulation needed to answer /reaction-delays.
  v6t::bgp::SplitSchedule::Params params;
  params.base = spec.config.t1Base;
  params.start = v6t::sim::kEpoch;
  params.baseline = spec.config.baseline;
  params.cycle = spec.config.cycle;
  params.withdrawGap = spec.config.withdrawGap;
  params.splits = spec.config.splits;
  const v6t::bgp::SplitSchedule schedule =
      v6t::bgp::SplitSchedule::make(params);

  SpanRecorder rec{trace};
  v6t::telescope::CaptureStore store;
  double loadSeconds = 0.0;
  {
    ScopedSpan span{rec, "serve.load"};
    std::ifstream in{capture, std::ios::binary};
    if (!in) throw std::runtime_error("cannot open " + capture);
    store.readFrom(in);
    loadSeconds = span.stop();
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::string serve = serveMix(store.packets(), loadSeconds, &schedule,
                                     opts, rec, attempted, failed);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  JsonObject out;
  out.str("kind", "serve");
  out.str("workload", spec.name);
  out.integer("seed", seed);
  out.str("config_hash", hex64(configHash(spec)));
  out.raw("serve", serve);
  out.integer("serve_attempted", attempted);
  out.integer("serve_failed", failed);
  addUsage(out, usage);
  if (rec.enabled()) out.raw("spans", spansJson(rec.spans()));
  std::cout << out.str() << std::endl;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "version") {
    JsonObject out;
    out.str("compiler", PERFBENCH_COMPILER);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    out.str("cxx_flags", PERFBENCH_CXX_FLAGS);
    std::cout << out.str() << std::endl;
    return 0;
  }
  BatchArgs batch;
  ServeMixOptions serve;
  std::string capture;
  bool trace = false;
  bool smoke = false;
  std::string workload;
  std::uint64_t seed = 42;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    auto count = [&] { return static_cast<unsigned>(std::stoul(value())); };
    if (a == "--workload") workload = value();
    else if (a == "--seed") seed = std::stoull(value());
    else if (a == "--shards") batch.shards = count();
    else if (a == "--work") batch.workDir = value();
    else if (a == "--iterations")
      batch.serveIterations = serve.iterations = count();
    else if (a == "--cores") batch.cores = serve.cores = count();
    else if (a == "--dump-t1") batch.dumpT1 = value();
    else if (a == "--capture") capture = value();
    else if (a == "--smoke") smoke = true;
    else if (a == "--trace") trace = true;
    else if (a == "--ladder") batch.ladder = serve.ladder = true;
    else if (a == "--corrupt-reference") serve.corruptReference = true;
    else return usage();
  }
  if (workload.empty()) return usage();
  try {
    if (mode == "batch") {
      if (batch.workDir.empty() || batch.shards == 0) return usage();
      batch.workload = workload;
      batch.seed = seed;
      batch.smoke = smoke;
      batch.trace = trace;
      return runBatch(batch);
    }
    if (mode == "serve") {
      if (capture.empty()) return usage();
      serve.seed = seed;
      serve.smoke = smoke;
      return runServe(workload, seed, capture, serve, trace);
    }
  } catch (const std::exception& e) {
    std::cerr << "v6t_perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
