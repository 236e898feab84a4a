// v6t::sim — simulated time.
//
// All simulation state is keyed by SimTime, a strong type counting
// milliseconds since the experiment epoch (the instant the first telescope
// goes live). Wall-clock time never enters the simulation; determinism is a
// design invariant (see DESIGN.md §5).
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace v6t::sim {

/// A span of simulated time, in milliseconds. Value type, totally ordered.
class Duration {
public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t millis) : millis_(millis) {}

  [[nodiscard]] constexpr std::int64_t millis() const { return millis_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(millis_) / 1000.0;
  }
  [[nodiscard]] constexpr double hours() const { return seconds() / 3600.0; }
  [[nodiscard]] constexpr double days() const { return hours() / 24.0; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration o) const {
    return Duration{millis_ + o.millis_};
  }
  constexpr Duration operator-(Duration o) const {
    return Duration{millis_ - o.millis_};
  }
  constexpr Duration operator*(std::int64_t k) const {
    return Duration{millis_ * k};
  }
  constexpr Duration operator/(std::int64_t k) const {
    return Duration{millis_ / k};
  }

private:
  std::int64_t millis_ = 0;
};

constexpr Duration millis(std::int64_t n) { return Duration{n}; }
constexpr Duration seconds(std::int64_t n) { return Duration{n * 1000}; }
constexpr Duration minutes(std::int64_t n) { return seconds(n * 60); }
constexpr Duration hours(std::int64_t n) { return minutes(n * 60); }
constexpr Duration days(std::int64_t n) { return hours(n * 24); }
constexpr Duration weeks(std::int64_t n) { return days(n * 7); }

/// An instant on the simulated clock: milliseconds since experiment epoch.
class SimTime {
public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t millis) : millis_(millis) {}

  [[nodiscard]] constexpr std::int64_t millis() const { return millis_; }

  /// Index of the hour/day/week bucket this instant falls into.
  [[nodiscard]] constexpr std::int64_t hourIndex() const {
    return millis_ / (3600LL * 1000);
  }
  [[nodiscard]] constexpr std::int64_t dayIndex() const {
    return millis_ / (24LL * 3600 * 1000);
  }
  [[nodiscard]] constexpr std::int64_t weekIndex() const {
    return millis_ / (7LL * 24 * 3600 * 1000);
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(Duration d) const {
    return SimTime{millis_ + d.millis()};
  }
  constexpr SimTime operator-(Duration d) const {
    return SimTime{millis_ - d.millis()};
  }
  constexpr Duration operator-(SimTime o) const {
    return Duration{millis_ - o.millis_};
  }
  SimTime& operator+=(Duration d) {
    millis_ += d.millis();
    return *this;
  }

private:
  std::int64_t millis_ = 0;
};

/// Epoch constant — the start of the experiment.
inline constexpr SimTime kEpoch{0};
/// An instant later than any the simulation reaches ("never").
inline constexpr SimTime kNever{std::numeric_limits<std::int64_t>::max()};

/// Render as "Dd HH:MM:SS.mmm" for logs and reports.
[[nodiscard]] std::string toString(SimTime t);
[[nodiscard]] std::string toString(Duration d);

} // namespace v6t::sim
