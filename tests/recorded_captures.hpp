// Traffic recorded at the IDS spot, for tests that replay captures into a
// KalisNode or a Pipeline instead of attaching them to a live World. The
// Fig. 8 scenarios are captures already (scenarios::capture); these are the
// worlds the tests add to them.
#pragma once

#include <cstdint>

#include "scenarios/common.hpp"

namespace kalis::recorded {

/// The WiFi/BLE home under the §VI-B1 ICMP flood and the SYN flood (50
/// bursts each, interleaved).
scenarios::Capture recordHomeFloods(std::uint64_t seed);

/// A ZigBee star (coordinator polling four subs), no attack.
scenarios::Capture recordZigbeeStar(std::uint64_t seed);

/// 25 s of the WiFi home with two ICMP-flood bursts from 8 s, as
/// trace_replay records it: a short attack trace for replay-equivalence
/// tests.
scenarios::Capture recordShortIcmpFlood(std::uint64_t seed);

}  // namespace kalis::recorded
