// The capture unit consumed by every IDS in this repository, and the
// dissector that parses it into protocol layers.
//
// Kalis's Communication System (paper §IV-B1) overhears traffic on all
// supported interfaces; a CapturedPacket is exactly what such promiscuous
// capture yields: the medium, the raw frame bytes, and receive metadata
// (virtual timestamp, RSSI, channel). Detection modules never see anything
// the radio could not have seen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/addr.hpp"
#include "net/ble.hpp"
#include "net/ctp.hpp"
#include "net/entity_ref.hpp"
#include "net/ieee80211.hpp"
#include "net/ieee802154.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/transport.hpp"
#include "net/zigbee.hpp"
#include "util/bytes.hpp"
#include "util/types.hpp"

namespace kalis::net {

enum class Medium : std::uint8_t { kIeee802154, kWifi, kBluetooth };

const char* mediumName(Medium m);

/// Receive-side metadata attached by the capturing radio.
struct RxMeta {
  SimTime timestamp = 0;
  double rssiDbm = -100.0;
  int channel = 0;
  NodeId capturedBy = kInvalidNode;   ///< which sniffer interface saw it
  std::uint64_t captureSeq = 0;       ///< monotone per-sniffer capture index
};

struct CapturedPacket {
  Medium medium = Medium::kWifi;
  Bytes raw;
  RxMeta meta;
};

/// Classification used by the Traffic Statistics module; names below match
/// the knowgget labels from the paper ("TrafficFrequency.TCPSYN", ...).
enum class PacketType : std::uint8_t {
  kUnknown = 0,
  kMalformed,
  // 802.15.4 family
  kWpanAck,
  kWpanBeacon,
  kCtpData,
  kCtpRouting,
  kZigbeeData,
  kZigbeeRouting,
  kRplDio,
  kRplDao,
  kIcmpv6EchoReq,
  kIcmpv6EchoRep,
  kSixlowpanOther,
  // WiFi family
  kWifiBeacon,
  kWifiProbe,
  kWifiDeauth,
  kTcpSyn,
  kTcpSynAck,
  kTcpAck,
  kTcpRst,
  kTcpFin,
  kTcpData,
  kUdp,
  kIcmpEchoReq,
  kIcmpEchoRep,
  kIcmpOther,
  kIpOther,
  // Bluetooth
  kBleAdv,
  kBleScan,
};

const char* packetTypeName(PacketType t);
inline constexpr std::size_t kNumPacketTypes =
    static_cast<std::size_t>(PacketType::kBleScan) + 1;

/// Fully parsed view of a captured packet. Layers that did not parse are
/// empty optionals; `type` is always set (possibly kMalformed/kUnknown).
///
/// ZERO-COPY AND ALIASING: the dissector parses in place. Every variable-
/// length field here — `appPayload`, `raw`, and the payload/body views inside
/// the layer structs — is a BytesView aliasing the CapturedPacket's buffer
/// that was dissected. A Dissection is therefore valid only as long as that
/// buffer is; consumers that must outlive it copy explicitly with toBytes().
/// See DESIGN.md §10 for the full contract.
struct Dissection {
  Medium medium = Medium::kWifi;
  PacketType type = PacketType::kUnknown;

  // 802.15.4 stack
  std::optional<Ieee802154FrameView> wpan;
  std::optional<CtpDataView> ctpData;
  std::optional<CtpRoutingBeacon> ctpBeacon;
  std::optional<ZigbeeNwkFrameView> zigbee;
  std::optional<Ipv6Header> ipv6;
  std::optional<Icmpv6MessageView> icmpv6;
  std::optional<RplDio> rplDio;
  std::optional<RplDao> rplDao;

  // WiFi stack
  std::optional<WifiFrameView> wifi;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpSegmentView> tcp;
  std::optional<UdpDatagramView> udp;
  std::optional<IcmpMessageView> icmp;

  // Bluetooth
  std::optional<BleAdvPduView> ble;

  /// Innermost application payload (possibly empty). Aliases `raw`.
  BytesView appPayload;

  // Codec support views (all alias `raw`). These preserve the byte spans the
  // named layers above cannot reconstruct on their own, so that
  // serialize(dissect(pkt)) == pkt.raw holds unconditionally — see codec.hpp.
  /// The 8-byte LLC/SNAP header of a WiFi data frame, when one unwrapped.
  BytesView llcHeader;
  /// The IP payload (set whenever ipv4/ipv6 parsed — even if the transport
  /// layer inside it did not, which is what makes kMalformed re-emittable).
  BytesView l3Payload;
  /// Link-layer slack past the IP totalLength/payloadLength.
  BytesView l3Trailer;
  /// Slack past the UDP length field inside l3Payload.
  BytesView l4Trailer;

  /// The frame this dissection was parsed from (aliases the capture buffer).
  BytesView raw;

  // Integrity verdicts. dissect() parses structure only; these compute the
  // link-layer FCS check over `raw` when asked (no detector asks; the
  // readable dump does). False when that link layer did not parse.
  bool wpanFcsValid() const { return wpan && verifyIeee802154Fcs(raw); }
  bool wifiFcsValid() const { return wifi && verifyWifiFcs(raw); }

  // Allocation-free entity identities — the per-packet hot-path accessors.
  /// Link-layer sender (EntityRef::none() when no link layer parsed).
  EntityRef linkSourceRef() const {
    if (wpan) return EntityRef::of(wpan->src);
    if (wifi) return EntityRef::of(wifi->src);
    if (ble) return EntityRef::of(ble->advAddr);
    return EntityRef::none();
  }
  /// Link-layer destination (BLE advertising is always "broadcast").
  EntityRef linkDestRef() const {
    if (wpan) return EntityRef::of(wpan->dst);
    if (wifi) return EntityRef::of(wifi->dst);
    if (ble) return EntityRef::broadcastLabel();
    return EntityRef::none();
  }
  /// Network-layer source, when an IP layer parsed.
  EntityRef networkSourceRef() const {
    if (ipv4) return EntityRef::of(ipv4->src);
    if (ipv6) return EntityRef::of(ipv6->src);
    return EntityRef::none();
  }
  EntityRef networkDestRef() const {
    if (ipv4) return EntityRef::of(ipv4->dst);
    if (ipv6) return EntityRef::of(ipv6->dst);
    return EntityRef::none();
  }

  // String forms — thin wrappers over the refs, for knowgget labels and
  // alert text. These allocate; keep them off the per-packet path.
  /// Entity identifier of the link-layer sender, as used in knowgget
  /// "entity" fields ("0x0003", "aa:bb:cc:dd:ee:ff").
  std::string linkSource() const { return linkSourceRef().toString(); }
  /// Entity identifier of the link-layer destination.
  std::string linkDest() const { return linkDestRef().toString(); }
  /// Network-layer source if an IP layer parsed ("10.0.0.7", "fe80::...").
  std::optional<std::string> networkSource() const {
    const EntityRef r = networkSourceRef();
    if (!r.valid()) return std::nullopt;
    return r.toString();
  }
  std::optional<std::string> networkDest() const {
    const EntityRef r = networkDestRef();
    if (!r.valid()) return std::nullopt;
    return r.toString();
  }
  bool isBroadcastDest() const;
};

/// Parses every layer it can from the raw bytes, entirely in place: the
/// result aliases pkt.raw (see Dissection). Never throws; garbage input
/// yields type = kMalformed / kUnknown with layers unset.
Dissection dissect(const CapturedPacket& pkt);

/// Number of dissect() calls made on the calling thread. It is per thread so
/// that a pipeline's shard workers, which dissect concurrently, write no
/// shared memory per packet. Tests take deltas of it on the thread that runs
/// the capture path to enforce the dissect-once invariant; see sim_test.cpp.
std::uint64_t dissectCallCount();

}  // namespace kalis::net
