// IEEE 802.11 frames: data frames carrying LLC/SNAP + IP, and the management
// beacons access points emit. Modeled in infrastructure (BSS) layout with the
// three-address scheme.
//
// Data frame layout (little-endian frame control):
//   fc(2) | duration(2) | addr1(6) | addr2(6) | addr3(6) | seqctl(2) | body | FCS(4)
// For toDS=0/fromDS=1 (AP -> station): addr1 = dst, addr2 = BSSID, addr3 = src.
// For toDS=1/fromDS=0 (station -> AP): addr1 = BSSID, addr2 = src, addr3 = dst.
// We always expose logical (dst, src, bssid) regardless of direction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

enum class WifiFrameKind : std::uint8_t {
  kData,
  kBeacon,
  kProbeRequest,
  kDeauth,
};

/// Body storage is a template parameter: encoders own their body (Storage =
/// Bytes); the dissector keeps a zero-copy view into the capture buffer
/// (Storage = BytesView).
template <class Storage>
struct WifiFrameT {
  WifiFrameKind kind = WifiFrameKind::kData;
  bool toDs = false;
  bool fromDs = false;
  bool protectedFrame = false;  ///< WPA/WEP "protected" bit (feature signal)
  Mac48 dst{};
  Mac48 src{};
  Mac48 bssid{};
  std::uint16_t seqCtl = 0;
  /// For data frames: LLC/SNAP + network payload. For beacons: the SSID.
  Storage body{};
  // Wire-preservation fields (packetlib discipline: the parser keeps every
  // bit so encode(decode(x)) == x). Builders leave the defaults, which
  // reproduce the historical encoder output byte-for-byte.
  std::uint8_t dataSubtype = 0;  ///< fc subtype nibble of a data frame (QoS…)
  std::uint8_t fc1Extra = 0;     ///< fc byte 1 bits outside toDS/fromDS/prot
  std::uint16_t duration = 0;    ///< duration/ID field, verbatim
  /// FCS as seen on the wire; parsers always set it (valid or not), builders
  /// leave it unset and get a freshly computed CRC-32.
  std::optional<std::uint32_t> wireFcs{};

  Bytes encode() const;
};

using WifiFrame = WifiFrameT<Bytes>;
using WifiFrameView = WifiFrameT<BytesView>;

/// Parses the frame's structure into `slot`, which the caller owns (in
/// dissect() it is the Dissection's own member). Returns false and leaves
/// the slot empty when the frame is truncated or of a kind this stack does
/// not model. The FCS is kept in wireFcs but not checked: a bad FCS still
/// decodes (an IDS wants to see corrupted traffic), and verifyWifiFcs gives
/// the verdict when something asks for it.
bool decodeWifi(BytesView raw, std::optional<WifiFrameView>& slot);

/// True when the frame's last four bytes are the CRC-32 (little-endian) of
/// the bytes before them; false for a frame shorter than an FCS.
bool verifyWifiFcs(BytesView frame);

// LLC/SNAP encapsulation for data frame bodies.
inline constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEthertypeIpv6 = 0x86dd;

/// Prepends the 8-byte LLC/SNAP header (AA AA 03 00 00 00 ethertype).
Bytes llcSnapWrap(std::uint16_t ethertype, BytesView payload);

struct LlcSnapDecoded {
  std::uint16_t ethertype = 0;
  BytesView payload;  ///< aliases the unwrapped body
};

/// Unwraps a data frame body into `slot`; false, with the slot empty, when
/// the body is shorter than the header or is not LLC/SNAP.
bool llcSnapUnwrap(BytesView body, std::optional<LlcSnapDecoded>& slot);

/// Builds a beacon body carrying an SSID string.
Bytes beaconBody(const std::string& ssid);
std::optional<std::string> beaconSsid(BytesView body);

}  // namespace kalis::net
