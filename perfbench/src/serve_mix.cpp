#include "serve_mix.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "telescope/session.hpp"

namespace perfbench {

namespace {

using namespace v6t;

/// Latency limit on p99 for serve.max_rate_rps, from the due time.
constexpr double kP99LimitMs = 5.0;
/// A leg's generator is "keeping up" while the median send in its last
/// tenth runs no later than this behind schedule: a growing backlog moves
/// the median, one scheduler hiccup does not.
constexpr double kTailLagLimitMs = 1.0;
/// Fixed rate ladder: kLadderBase * kLadderStep^i, i < kLadderSize.
constexpr double kLadderBase = 100.0;
constexpr double kLadderStep = 1.03;
constexpr int kLadderSize = 400;
/// Responses still missing this long after the last send are missing.
constexpr double kResponseTimeoutS = 0.5;
/// A request queued this long for a free connection means the leg has
/// failed; it stops early instead of queueing seconds of backlog.
constexpr double kAbortLagMs = 20.0;

enum class Kind { Table6, HeavyHitters, ReactionDelays, SourcesSeen,
                  SourcesUnseen, Metrics };
constexpr int kKinds = 6;
const char* const kKindNames[kKinds] = {"table6", "heavy_hitters",
                                        "reaction_delays", "sources_seen",
                                        "sources_unseen", "metrics"};

struct Target {
  std::string path;
  Kind kind;
  int status = 200;
  std::string body; // ignored for /metrics, whose body changes per scrape
};

double ladderRate(int i) { return kLadderBase * std::pow(kLadderStep, i); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())) - 1);
  return v[std::min(idx, v.size() - 1)];
}

/// The traffic: a seeded request sequence over a fixed target table.
///
/// The shares below (30% hot dashboard targets, 45% seen sources drawn
/// Zipf s=1 over the busiest ones, 20% unseen sources, 5% /metrics), the
/// table sizes and the reference rate are assumptions, not measurements:
/// no request log of the query service exists to draw them from. They
/// fix the cache hit share (about 0.79 at the reference rate), which
/// query_p50_ms follows; a change of them is a change of the workload.
struct Mix {
  std::vector<Target> targets;
  std::vector<std::uint32_t> sequence; // indices into targets
};

Mix buildMix(std::span<const net::Packet> packets, std::uint64_t seed,
             bool smoke) {
  Mix mix;
  mix.targets.push_back({"/reports/table6", Kind::Table6, 200, {}});
  mix.targets.push_back({"/reaction-delays", Kind::ReactionDelays, 200, {}});
  for (const int k : {5, 10, 25}) {
    mix.targets.push_back(
        {"/heavy-hitters?k=" + std::to_string(k), Kind::HeavyHitters, 200, {}});
  }
  const std::size_t hot = mix.targets.size();
  mix.targets.push_back({"/metrics", Kind::Metrics, 200, {}});
  const std::size_t metricsIdx = hot;

  // Captured sources ranked by packet count; the Zipf draw favours the
  // busiest (assumed: drill-downs start from the heavy hitters).
  std::map<net::Ipv6Address, std::uint64_t> bySource;
  for (const net::Packet& p : packets) ++bySource[p.src];
  std::vector<std::pair<std::uint64_t, net::Ipv6Address>> ranked;
  ranked.reserve(bySource.size());
  for (const auto& [addr, n] : bySource) ranked.emplace_back(n, addr);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  ranked.resize(std::min<std::size_t>(ranked.size(), smoke ? 256 : 4096));
  const std::size_t seenBase = mix.targets.size();
  for (const auto& [n, addr] : ranked) {
    mix.targets.push_back(
        {"/sources/" + addr.toString(), Kind::SourcesSeen, 200, {}});
  }
  const std::size_t seenCount = ranked.size();

  // Unseen sources: documentation-prefix addresses, outside every
  // telescope's address plan, so they are never captured (always 404).
  std::mt19937_64 rng{seed ^ 0x5e7e5eedULL};
  const std::size_t unseenBase = mix.targets.size();
  const std::size_t unseenCount = smoke ? 32 : 512;
  for (std::size_t i = 0; i < unseenCount; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/sources/2001:db8:%x:%x::%x",
                  static_cast<unsigned>(rng() & 0xffff),
                  static_cast<unsigned>(rng() & 0xffff),
                  static_cast<unsigned>(rng() & 0xffff) | 1u);
    mix.targets.push_back({buf, Kind::SourcesUnseen, 404, {}});
  }

  std::vector<double> zipf(std::max<std::size_t>(seenCount, 1));
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    zipf[r] = 1.0 / static_cast<double>(r + 1);
  }
  std::discrete_distribution<std::size_t> zipfDraw{zipf.begin(), zipf.end()};
  std::uniform_real_distribution<double> u{0.0, 1.0};
  mix.sequence.resize(smoke ? 4096 : 65536);
  for (std::uint32_t& s : mix.sequence) {
    const double x = u(rng);
    if (x < 0.30 || seenCount == 0) {
      s = static_cast<std::uint32_t>(rng() % hot);
    } else if (x < 0.75) {
      s = static_cast<std::uint32_t>(seenBase + zipfDraw(rng));
    } else if (x < 0.95) {
      s = static_cast<std::uint32_t>(unseenBase + rng() % unseenCount);
    } else {
      s = static_cast<std::uint32_t>(metricsIdx);
    }
  }
  return mix;
}

std::string requestBytes(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Extract one complete response from `in`; false when more bytes are
/// needed.
bool takeResponse(std::string& in, int& status, std::string& body) {
  const std::size_t headEnd = in.find("\r\n\r\n");
  if (headEnd == std::string::npos) return false;
  status = in.size() > 12 ? std::atoi(in.c_str() + 9) : 0;
  std::size_t length = 0;
  const std::size_t at = in.find("Content-Length: ");
  if (at != std::string::npos && at < headEnd) {
    length = std::strtoull(in.c_str() + at + 16, nullptr, 10);
  }
  const std::size_t total = headEnd + 4 + length;
  if (in.size() < total) return false;
  body.assign(in, headEnd + 4, length);
  in.erase(0, total);
  return true;
}

bool responseOk(const Target& t, int status, const std::string& body) {
  if (status != t.status) return false;
  return t.kind == Kind::Metrics ? !body.empty() : body == t.body;
}

struct LegResult {
  std::uint64_t sent = 0;
  /// Wrong status or body, or a connection lost under the request.
  std::uint64_t wrong = 0;
  /// Never answered: not sent before an abort, or timed out.
  std::uint64_t missing = 0;
  std::vector<double> latencyMs; // failed requests count as +inf
  std::vector<double> lagMs;
  double tailLagMs = 0.0;

  [[nodiscard]] double p99() const { return percentile(latencyMs, 0.99); }
  [[nodiscard]] bool pass() const {
    return wrong == 0 && missing == 0 && p99() <= kP99LimitMs &&
           tailLagMs <= kTailLagLimitMs;
  }
};

/// Open-loop generator on the calling thread: request i is due at
/// t0 + i / rate whatever happened before. It goes out on an idle
/// keep-alive connection, or waits in the client's queue until one frees
/// up (no pipelining, like a pooled HTTP/1.1 client), and is timed from
/// its due time to the last byte of its response.
class Generator {
public:
  Generator(std::uint16_t port, unsigned connections) : port_(port) {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) throw std::runtime_error("epoll_create1() failed");
    conns_.resize(connections);
    for (std::size_t c = 0; c < conns_.size(); ++c) open(c);
  }
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ::close(epfd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// `abortLagMs`: give up once a queued request has waited this long
  /// (ladder legs only; at the reference rate every request is answered).
  LegResult run(const Mix& mix, double rate, double seconds,
                std::size_t& cursor,
                double abortLagMs = std::numeric_limits<double>::infinity()) {
    LegResult r;
    const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
    std::vector<std::uint32_t> target(n);
    for (std::size_t i = 0; i < n; ++i) {
      target[i] = mix.sequence[cursor++ % mix.sequence.size()];
    }
    std::vector<double> done(n, -1.0);
    r.lagMs.assign(n, 0.0);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    auto due = [&](std::size_t i) {
      return static_cast<double>(i) / rate; // seconds after t0
    };
    auto since = [&] {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const double deadline = due(n - 1) + kResponseTimeoutS;
    std::deque<std::size_t> queue; // due, waiting for an idle connection
    std::size_t next = 0;
    std::size_t sent = 0;
    std::size_t outstanding = 0;
    epoll_event events[16];
    std::string body;
    while (next < n || !queue.empty() || outstanding > 0) {
      double now = since();
      if (now > deadline) break;
      while (next < n && due(next) <= now) queue.push_back(next++);
      // A request kept waiting this long for a connection means the
      // server is behind: the leg has failed. Stop sending, count the rest
      // as missing, and drain what is in flight so the connections stay
      // usable for the next leg.
      if (!queue.empty() && (now - due(queue.front())) * 1e3 > abortLagMs) {
        r.missing += queue.size() + (n - next);
        queue.clear();
        next = n;
      }
      for (std::size_t c = 0; c < conns_.size() && !queue.empty(); ++c) {
        Conn& conn = conns_[c];
        if (conn.pending.has_value()) continue;
        const std::size_t i = queue.front();
        queue.pop_front();
        conn.out += requestBytes(mix.targets[target[i]].path);
        conn.pending = i;
        r.lagMs[i] = (now - due(i)) * 1e3;
        ++sent;
        ++outstanding;
        flush(c);
      }
      // Sleep until the next request is due or a response arrives; with
      // requests queued, wake in time to notice the abort condition too.
      double wait = (next < n ? due(next) : deadline) - now;
      if (!queue.empty()) wait = std::min(wait, abortLagMs / 1e3);
      wait = std::max(0.0, wait);
      const timespec ts{static_cast<time_t>(wait),
                        static_cast<long>((wait - std::floor(wait)) * 1e9)};
      const int ready = ::epoll_pwait2(epfd_, events, 16, &ts, nullptr);
      for (int e = 0; e < ready; ++e) {
        const std::size_t c = events[e].data.u64;
        Conn& conn = conns_[c];
        if ((events[e].events & EPOLLOUT) != 0) flush(c);
        if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
        bool closed = false;
        char buf[65536];
        while (true) {
          const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (got > 0) {
            conn.in.append(buf, static_cast<std::size_t>(got));
            continue;
          }
          if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            closed = true;
          }
          break;
        }
        int status = 0;
        if (conn.pending.has_value() && takeResponse(conn.in, status, body)) {
          const std::size_t i = *conn.pending;
          conn.pending.reset();
          --outstanding;
          if (responseOk(mix.targets[target[i]], status, body)) {
            done[i] = since();
          } else {
            ++r.wrong;
          }
        }
        if (closed) {
          // Transport failure: the request on it is lost.
          if (conn.pending.has_value()) {
            ++r.wrong;
            --outstanding;
          }
          open(c);
        }
      }
    }
    // Whatever is still outstanding or queued was never answered; a fresh
    // connection keeps a late response out of the next leg.
    r.missing += outstanding;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].pending.has_value()) open(c);
    }
    r.sent = sent;
    // The first tenth of a leg is its warm-up: workers (and, on a shared
    // host, the vCPUs under them) wake from the pause between legs.
    r.latencyMs.reserve(n);
    for (std::size_t i = n / 10; i < n; ++i) {
      r.latencyMs.push_back(done[i] < 0
                                ? std::numeric_limits<double>::infinity()
                                : (done[i] - due(i)) * 1e3);
    }
    const auto tail = static_cast<std::ptrdiff_t>(n / 10 + 1);
    r.tailLagMs =
        percentile(std::vector<double>(r.lagMs.end() - tail, r.lagMs.end()),
                   0.5);
    return r;
  }

private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::optional<std::size_t> pending; // request awaiting its response
  };

  void open(std::size_t c) {
    Conn& conn = conns_[c];
    if (conn.fd >= 0) ::close(conn.fd);
    conn = Conn{};
    conn.fd = connectLoopback(port_);
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (!conn.out.empty()) {
      const ssize_t sent =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (sent <= 0) break;
      conn.out.erase(0, static_cast<std::size_t>(sent));
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.out.empty() ? 0u : EPOLLOUT);
    ev.data.u64 = c;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  std::uint16_t port_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
};

/// Sequential GETs over one fresh connection; returns false on any
/// response that differs from the reference.
bool fetchAll(std::uint16_t port, const Mix& mix,
              const std::vector<std::size_t>& which) {
  const int fd = connectLoopback(port);
  std::string in;
  std::string body;
  bool ok = true;
  char buf[65536];
  for (const std::size_t t : which) {
    const std::string req = requestBytes(mix.targets[t].path);
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
      ok = false;
      break;
    }
    int status = 0;
    while (!takeResponse(in, status, body)) {
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) {
        ::close(fd);
        return false;
      }
      in.append(buf, static_cast<std::size_t>(got));
    }
    ok = ok && responseOk(mix.targets[t], status, body);
  }
  ::close(fd);
  return ok;
}

} // namespace

std::string serveMix(std::span<const net::Packet> packets, double loadSeconds,
                     const bgp::SplitSchedule* schedule,
                     const ServeMixOptions& opts, SpanRecorder& rec,
                     std::uint64_t& attempted, std::uint64_t& failed) {
  const unsigned workers = std::max(1u, opts.cores / 2); // + the generator
  const unsigned connections = std::min(4u, std::max(1u, opts.cores));

  // Set-up: load (timed by the caller) + sessionize + index build +
  // listen + warm pass over the hot targets.
  double setup = loadSeconds;
  std::vector<telescope::Session> sessions;
  {
    ScopedSpan span{rec, "serve.sessionize"};
    sessions = telescope::sessionize(packets, telescope::SourceAgg::Addr128);
    setup += span.stop();
  }
  obs::Registry registry;
  std::optional<serve::QueryEngine> engine;
  double indexBuild = 0.0;
  {
    ScopedSpan span{rec, "serve.index_build"};
    serve::QueryEngineOptions engineOptions;
    engineOptions.analysisThreads = opts.cores;
    engine.emplace(packets, sessions, schedule, engineOptions, &registry);
    indexBuild = span.stop();
    setup += indexBuild;
  }
  std::optional<serve::Server> server;
  {
    ScopedSpan span{rec, "serve.listen"};
    serve::ServerOptions serverOptions;
    serverOptions.threads = workers;
    serverOptions.registry = &registry;
    server.emplace(*engine, serverOptions);
    server->start();
    setup += span.stop();
  }
  // The traffic depends only on the capture and the seed; built untimed.
  Mix mix = buildMix(packets, opts.seed, opts.smoke);
  std::vector<std::size_t> hotTargets;
  for (std::size_t t = 0; t < mix.targets.size(); ++t) {
    const Kind k = mix.targets[t].kind;
    if (k == Kind::Table6 || k == Kind::ReactionDelays ||
        k == Kind::HeavyHitters) {
      hotTargets.push_back(t);
    }
  }
  {
    // The reference bodies are built after set-up, so the comparison
    // result of this pass means nothing yet.
    ScopedSpan span{rec, "serve.warm"};
    (void)fetchAll(server->port(), mix, hotTargets);
    setup += span.stop();
  }

  // Reference answers straight from QueryEngine::evaluate; their timings
  // are the serve.evaluate_ms.* layer readings.
  std::vector<std::vector<double>> evalMs(kKinds);
  {
    ScopedSpan span{rec, "serve.reference"};
    for (Target& t : mix.targets) {
      const Clock::time_point e0 = Clock::now();
      const serve::QueryEngine::Response r = engine->evaluate(t.path);
      evalMs[static_cast<int>(t.kind)].push_back(secondsSince(e0) * 1e3);
      t.status = r.status;
      t.body = r.body;
    }
  }
  if (opts.corruptReference) {
    mix.targets.front().body += "x";
  }

  // The reference rate is chosen, not observed: it keeps the workers busy
  // (a pause-free stream), so its latency is service time plus queueing,
  // not wake-up latency.
  const double refRate = opts.smoke ? 2000.0 : 20000.0;
  const double refSeconds = opts.smoke ? 0.25 : 1.5;

  std::vector<double> coldReport;
  std::vector<double> refLatencyMs; // pooled over every reference leg
  std::vector<double> lagP99;
  std::size_t cursor = 0;
  Generator gen{server->port(), connections};
  for (unsigned iteration = 0; iteration < std::max(1u, opts.iterations);
       ++iteration) {
    for (int rep = 0; rep < 3; ++rep) {
      // Cold dashboard: every hot target through a server whose cache is
      // empty — the time a user waits for a fresh report.
      serve::ServerOptions coldOptions;
      coldOptions.threads = workers;
      serve::Server cold{*engine, coldOptions};
      cold.start();
      ScopedSpan span{rec, "serve.cold_report"};
      const bool ok = fetchAll(cold.port(), mix, hotTargets);
      coldReport.push_back(span.stop());
      attempted += hotTargets.size();
      failed += ok ? 0 : 1;
      cold.stop();
    }
    // The first part of each leg is discarded (Generator::run); a short
    // leg before the measured one also lets the first misses of the
    // seen-source tail land in the cache.
    for (const bool measured : {false, true}) {
      ScopedSpan span{rec, measured ? "serve.reference_rate_leg"
                                    : "serve.warmup_leg"};
      const LegResult leg =
          gen.run(mix, refRate, measured ? refSeconds : refSeconds / 3,
                  cursor);
      attempted += leg.sent;
      failed += leg.wrong + leg.missing; // every request must be answered
      if (!measured) continue;
      refLatencyMs.insert(refLatencyMs.end(), leg.latencyMs.begin(),
                          leg.latencyMs.end());
      lagP99.push_back(percentile(leg.lagMs, 0.99));
    }
  }

  JsonObject out;
  out.num("setup_s", setup);
  out.num("time_to_report_s", median(coldReport));
  out.raw("cold_report_samples_s", jsonNumbers(coldReport));
  out.num("query_p50_ms", percentile(refLatencyMs, 0.50));
  out.num("serve.query_p99_ms", percentile(refLatencyMs, 0.99));
  out.integer("latency_samples", refLatencyMs.size());
  out.num("reference_rate_rps", refRate);
  out.num("serve.index_build_s", indexBuild);
  for (int k = 0; k < kKinds; ++k) {
    out.num(std::string{"serve.evaluate_ms."} + kKindNames[k],
            median(evalMs[k]));
  }
  out.num("serve.generator_lag_ms", median(lagP99));

  if (opts.ladder) {
    // Highest ladder rate that passes: gallop up from the reference rate,
    // then bisect between the last pass and the first failure. Missing
    // answers above capacity are what it looks for, so only wrong ones
    // count as failed.
    ScopedSpan span{rec, "serve.rate_ladder"};
    int lo = -1;
    while (lo + 1 < kLadderSize && ladderRate(lo + 1) <= refRate) ++lo;
    int hi = kLadderSize;
    constexpr int kGallop = 24; // ladder steps per upward probe (x2.0)
    for (int probes = 0; hi - lo > 1 && probes < 16; ++probes) {
      const int probe = hi == kLadderSize
                            ? std::min(lo + kGallop, kLadderSize - 1)
                            : (lo < 0 ? hi / 2 : lo + (hi - lo) / 2);
      const double rate = ladderRate(probe);
      // A rate passes when two of three legs pass: neither one scheduler
      // stall nor one lucky burst on a shared host decides the capacity.
      int passes = 0;
      int fails = 0;
      while (passes < 2 && fails < 2) {
        const LegResult leg =
            gen.run(mix, rate, opts.smoke ? 0.1 : 0.25, cursor, kAbortLagMs);
        attempted += leg.sent;
        failed += leg.wrong;
        ++(leg.pass() ? passes : fails);
      }
      (passes == 2 ? lo : hi) = probe;
    }
    out.num("serve.max_rate_rps",
            lo >= 0 ? ladderRate(lo) : kLadderBase / kLadderStep);
    out.num("p99_limit_ms", kP99LimitMs);
  }
  const double hits = static_cast<double>(server->cache().hits());
  const double misses = static_cast<double>(server->cache().misses());
  out.num("serve.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
  server->stop();

  if (rec.enabled()) {
    // Parser and cache costs from direct calls on the recorded request
    // stream: the per-request share of a hit's parse -> cache -> write.
    ScopedSpan span{rec, "serve.direct_calls"};
    const std::size_t n = std::min<std::size_t>(mix.sequence.size(), 20000);
    std::vector<std::string> wire(n);
    for (std::size_t i = 0; i < n; ++i) {
      wire[i] = requestBytes(mix.targets[mix.sequence[i]].path);
    }
    // One keep-alive connection's parser, one request per read.
    serve::RequestParser parser;
    serve::HttpRequest request;
    std::size_t parsed = 0;
    const Clock::time_point p0 = Clock::now();
    for (const std::string& bytes : wire) {
      parser.feed(bytes);
      parsed += parser.poll(request) == serve::ParseState::Ready;
    }
    const double parseS = secondsSince(p0);
    const auto requests = static_cast<double>(std::max<std::size_t>(parsed, 1));
    out.num("serve.parse_us", parseS * 1e6 / requests);

    serve::ResultCache cache{serve::ResultCache::Options{}};
    std::vector<std::string> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Target& t = mix.targets[mix.sequence[i]];
      const auto target = serve::parseTarget(t.path);
      keys[i] = target ? serve::canonicalQueryKey(*target) : t.path;
      if (target && t.status == 200 &&
          serve::QueryEngine::cacheable(target->path)) {
        cache.put(keys[i], t.body);
      }
    }
    std::size_t found = 0;
    const Clock::time_point c0 = Clock::now();
    for (const std::string& key : keys) found += cache.get(key).has_value();
    const double getS = secondsSince(c0);
    out.num("serve.cache_get_us", getS * 1e6 / static_cast<double>(n));
    out.integer("serve.cache_get_found", found);
  }
  return out.str();
}

} // namespace perfbench
