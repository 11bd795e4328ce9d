// The single source of truth for how Kalis's radio mediums map onto pcap
// link-layer types (DLTs, per the tcpdump.org registry). Both the pcap
// reader/writer (trace/pcap.cpp) and the SnortEngine baseline consult this
// table — the baseline's "libpcap on the WiFi interface only" restriction is
// encoded here rather than in prose.
#pragma once

#include <cstdint>
#include <optional>

#include "net/packet.hpp"

namespace kalis::net {

// Registered DLT values (https://www.tcpdump.org/linktypes.html).
inline constexpr std::uint32_t kDltRaw = 101;              ///< raw IP
inline constexpr std::uint32_t kDltIeee80211 = 105;        ///< 802.11 + FCS
inline constexpr std::uint32_t kDltUser0 = 147;            ///< private range
inline constexpr std::uint32_t kDltIeee802154WithFcs = 195;
inline constexpr std::uint32_t kDltBleLinkLayer = 251;     ///< BLE LL PDUs

/// DLT_USER0, used for Kalis "mixed" captures: every record carries a
/// pseudo-header naming its medium plus full RxMeta (see trace/pcap.hpp).
inline constexpr std::uint32_t kDltKalisMixed = kDltUser0;

struct MediumDlt {
  Medium medium;
  std::uint32_t dlt;
  const char* name;
};

/// One row per Kalis medium, in Medium enum order.
inline constexpr MediumDlt kMediumDltTable[] = {
    {Medium::kIeee802154, kDltIeee802154WithFcs, "IEEE802_15_4_WITHFCS"},
    {Medium::kWifi, kDltIeee80211, "IEEE802_11"},
    {Medium::kBluetooth, kDltBleLinkLayer, "BLUETOOTH_LE_LL"},
};

/// The DLT a homogeneous capture of `m` frames uses.
std::uint32_t dltForMedium(Medium m);

/// Inverse mapping; nullopt for DLTs no Kalis medium produces (including
/// kDltKalisMixed, which is per-record, not per-file).
std::optional<Medium> mediumForDlt(std::uint32_t dlt);

}  // namespace kalis::net
