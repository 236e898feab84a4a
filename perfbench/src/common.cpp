#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/config.hpp"
#include "telescope/digest.hpp"

namespace perfbench {

int SpanRecorder::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  SpanRecord rec;
  rec.name = std::move(name);
  rec.startS = now();
  rec.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(rec));
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].endS = now();
  // Spans close in LIFO order; tolerate out-of-order closes by unwinding
  // to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += jsonEscape(k);
  body_ += "\":";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += jsonNumber(v[i]);
  }
  return out + "]";
}

void JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += jsonNumber(v);
}

void JsonObject::integer(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"';
  body_ += jsonEscape(v);
  body_ += '"';
}

void JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

std::string spansJson(const std::vector<SpanRecord>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    JsonObject o;
    o.str("name", spans[i].name);
    o.num("start", spans[i].startS);
    o.num("end", spans[i].endS);
    o.num("parent", spans[i].parent);
    if (i != 0) out += ',';
    out += o.str();
  }
  return out + "]";
}

void addUsage(JsonObject& out, const rusage& usage) {
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  out.num("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  out.num("proc.user_cpu_s", seconds(usage.ru_utime));
  out.num("proc.sys_cpu_s", seconds(usage.ru_stime));
  out.num("proc.vol_ctx_switches", static_cast<double>(usage.ru_nvcsw));
  out.num("proc.minor_faults", static_cast<double>(usage.ru_minflt));
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// The seconds-long timeline the smoke mode shrinks every workload to.
void shrinkTimeline(v6t::core::ExperimentConfig& c) {
  c.baseline = v6t::sim::weeks(3);
  c.splits = 3;
  c.routeObjectAt = v6t::sim::weeks(4);
}

} // namespace

WorkloadSpec makeWorkload(const std::string& name, std::uint64_t seed,
                          bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  v6t::core::ExperimentConfig& c = spec.config;
  c.seed = seed;
  if (name == "paper_timeline" || name == "query_mix") {
    // The default configuration: the run users make.
    if (smoke) {
      c.sourceScale = 0.04;
      c.volumeScale = 0.003;
    }
  } else if (name == "capture_flood") {
    // Few scanners, 2.5x the default volume, spilled through a memtable
    // budget far below the capture size.
    c.sourceScale = smoke ? 0.01 : 0.1;
    c.volumeScale = smoke ? 0.015 : 0.05;
    spec.spillBytes = smoke ? (64u << 10) : (8u << 20);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) shrinkTimeline(c);
  return spec;
}

std::uint64_t configHash(const WorkloadSpec& spec) {
  // The seed is recorded beside the hash, so the hash names the workload.
  v6t::core::ExperimentConfig config = spec.config;
  config.seed = 0;
  const std::string text = v6t::core::formatExperimentConfig(config) +
                           "spill_bytes = " +
                           std::to_string(spec.spillBytes) + "\n";
  std::uint64_t h = v6t::telescope::kFnvBasis;
  v6t::telescope::fnv1aBytes(
      h, reinterpret_cast<const unsigned char*>(text.data()), text.size());
  return h;
}

} // namespace perfbench
