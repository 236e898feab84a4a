// Shared pieces of the v6t_perfbench harness: wall-clock spans recorded
// around calls into the library's public API, a flat JSON writer for the
// one result line each invocation prints, and the workload table.
//
// Nothing here reaches inside the library: every number is either timed
// from outside a public call or read from what the library already
// exposes (RunnerStats / ShardStats, the final obs::Registry).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One span: a named interval on the process's steady clock, linked to the
/// span that was open when it started (-1 = root).
struct SpanRecord {
  std::string name;
  double startS = 0.0; // seconds since the recorder's origin
  double endS = 0.0;
  int parent = -1;
};

/// In-memory span recorder. Disabled recorders keep nothing; the caller
/// still gets the elapsed time back from ScopedSpan::stop(), which is how
/// untraced runs time the same calls without keeping a span list.
class SpanRecorder {
public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] double now() const { return secondsSince(origin_); }

  int open(std::string name);
  void close(int id);

private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& rec, std::string name)
      : rec_(rec), id_(rec.enabled() ? rec.open(std::move(name)) : -1),
        t0_(Clock::now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { stop(); }

  /// Close the span; returns its duration in seconds. Idempotent.
  double stop() {
    if (!stopped_) {
      elapsed_ = secondsSince(t0_);
      if (id_ >= 0) rec_.close(id_);
      stopped_ = true;
    }
    return elapsed_;
  }

private:
  SpanRecorder& rec_;
  int id_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

/// Flat JSON object builder; numbers keep all their digits.
class JsonObject {
public:
  void num(const std::string& key, double v);
  void integer(const std::string& key, std::uint64_t v);
  void str(const std::string& key, const std::string& v);
  /// `json` must already be valid JSON (an object or array).
  void raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
  void key(const std::string& k);
  std::string body_;
};

/// Median (mean of the middle two for an even count); 0 for no values.
[[nodiscard]] double median(std::vector<double> v);

[[nodiscard]] std::string jsonEscape(const std::string& s);
/// Shortest round-trip decimal form of `v` (17 significant digits).
[[nodiscard]] std::string jsonNumber(double v);
[[nodiscard]] std::string jsonNumbers(const std::vector<double>& v);
[[nodiscard]] std::string spansJson(const std::vector<SpanRecord>& spans);
/// peak_rss_mib and the proc.* readings of a getrusage(RUSAGE_SELF).
void addUsage(JsonObject& out, const rusage& usage);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Input sizes of one workload. `smoke` shrinks every workload to a
/// seconds-long timeline with the same shape (same layers exercised).
struct WorkloadSpec {
  std::string name;
  v6t::core::ExperimentConfig config;
  /// Memtable budget per (shard, telescope) store; 0 = in-memory capture.
  std::uint64_t spillBytes = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] WorkloadSpec makeWorkload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

/// FNV-1a over formatExperimentConfig (seed zeroed) plus the spill budget:
/// equal for every seed of a workload.
[[nodiscard]] std::uint64_t configHash(const WorkloadSpec& spec);

} // namespace perfbench
