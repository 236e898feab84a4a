// One batch invocation: construct the sharded ExperimentRunner, run the
// timeline and build the report the way v6t_run does, then print one JSON
// line with timings, digests and layer readings.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct BatchArgs {
  std::string workload;
  std::uint64_t seed = 42;
  unsigned shards = 1;
  bool smoke = false;
  bool trace = false;
  /// Scratch directory for spill segments and dumped captures.
  std::string workDir;
  /// When non-empty, write the T1 capture here as .v6tcap after timing.
  std::string dumpT1;
  /// Threads the serve leg may use (server workers plus the generator).
  unsigned cores = 4;
  /// Serve iterations over this run's T1 capture (serve_mix.hpp); 0 =
  /// no serve leg.
  unsigned serveIterations = 0;
  /// Finish the serve leg with a rate-ladder search.
  bool ladder = false;
};

/// Returns the process exit code; the result line goes to stdout.
int runBatch(const BatchArgs& args);

} // namespace perfbench
