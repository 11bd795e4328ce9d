// Fundamental strong types shared across the Kalis reproduction.
//
// All simulation time is virtual and expressed in integer microseconds so
// that every run is bit-for-bit deterministic. Wall-clock time is never
// consulted anywhere in the library.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace kalis {

/// Virtual simulation time in microseconds since the start of the run.
using SimTime = std::uint64_t;

/// A span of virtual time, in microseconds.
using Duration = std::uint64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

inline constexpr Duration microseconds(std::uint64_t us) { return us; }
inline constexpr Duration milliseconds(std::uint64_t ms) { return ms * 1000ull; }
inline constexpr Duration seconds(std::uint64_t s) { return s * 1'000'000ull; }

/// `value` counted in `unit` (seconds(1), milliseconds(1), ...) as a
/// Duration, or nullopt when it is negative, NaN or past the end of virtual
/// time, where a plain cast to Duration would be undefined.
inline std::optional<Duration> toDuration(double value, Duration unit) {
  const double us = value * static_cast<double>(unit);
  if (!(us >= 0.0 && us < 0x1p64)) return std::nullopt;
  return static_cast<Duration>(us);
}

/// Seconds as a double, for reporting only.
inline constexpr double toSeconds(Duration d) {
  return static_cast<double>(d) / 1e6;
}

/// Identifier of a simulated node (device, router, Internet host or IDS box).
/// NodeIds are dense small integers assigned by the simulator.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Human-readable node name used in knowgget "entity" fields and reports.
std::string defaultNodeName(NodeId id);

}  // namespace kalis
