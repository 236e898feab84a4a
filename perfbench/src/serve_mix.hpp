// The query_mix measurement: a QueryEngine and an epoll Server stood up
// in-process over one capture, driven by an open-loop generator on one
// thread. Every response is checked against QueryEngine::evaluate.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "bgp/splitter.hpp"
#include "common.hpp"
#include "net/packet.hpp"

namespace perfbench {

struct ServeMixOptions {
  std::uint64_t seed = 42;
  bool smoke = false;
  /// Measured iterations after set-up, each: three cold-dashboard
  /// fetches and one reference-rate leg. A fixed count, so cache warmth
  /// at each leg is the same from run to run.
  unsigned iterations = 1;
  /// Finish with a rate-ladder search for serve.max_rate_rps.
  bool ladder = false;
  /// Test hook: append a byte to one expected body, so the response gate
  /// must report mismatches.
  bool corruptReference = false;
  /// Threads the process may use in total (workers plus the generator).
  unsigned cores = 4;
};

/// Set-up (the caller's `loadSeconds`, then sessionize, index build,
/// listen, warm pass), the measured iterations and, optionally, the rate
/// ladder. `packets` must outlive the call. Returns one JSON object; adds
/// requests sent to `attempted` and wrong, refused or missing responses to
/// `failed`.
[[nodiscard]] std::string serveMix(std::span<const v6t::net::Packet> packets,
                                   double loadSeconds,
                                   const v6t::bgp::SplitSchedule* schedule,
                                   const ServeMixOptions& opts,
                                   SpanRecorder& rec, std::uint64_t& attempted,
                                   std::uint64_t& failed);

} // namespace perfbench
