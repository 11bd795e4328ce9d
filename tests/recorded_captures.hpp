// Fig. 8 traffic recorded at the IDS spot, for tests that replay captures
// into a KalisNode instead of attaching it to a live World.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::recorded {

struct Recording {
  std::vector<net::CapturedPacket> packets;  ///< capture order
  SimTime end = 0;  ///< time to run the replay to after the last packet
};

/// The WiFi/BLE home under the §VI-B1 ICMP flood and the SYN flood (50
/// bursts each, interleaved).
Recording recordHomeFloods(std::uint64_t seed);

/// The CTP WSN with a blackholing relay (the Fig. 8 blackhole scenario).
Recording recordWsnBlackhole(std::uint64_t seed);

/// The 6LoWPAN/RPL tree under the Fig. 8 Smurf attack (ICMPv6 echo
/// storms, RPL DIOs).
Recording recordSixlowpanSmurf(std::uint64_t seed);

/// A ZigBee star (coordinator polling four subs), no attack.
Recording recordZigbeeStar(std::uint64_t seed);

}  // namespace kalis::recorded
