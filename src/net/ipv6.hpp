// IPv6 header (RFC 8200), ICMPv6, and the RPL control messages (RFC 6550)
// carried over 6LoWPAN in the paper's IoT networks.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "net/ipv4.hpp"  // IpProto
#include "util/bytes.hpp"

namespace kalis::net {

struct Ipv6Header {
  std::uint8_t trafficClass = 0;
  std::uint32_t flowLabel = 0;
  std::uint8_t nextHeader = static_cast<std::uint8_t>(IpProto::kIcmpv6);
  std::uint8_t hopLimit = 64;
  Ipv6Addr src{};
  Ipv6Addr dst{};
  /// Payload length as seen on the wire; the parser always sets it (even when
  /// it disagrees with the actual payload), builders leave it unset and get
  /// the real payload size. Packetlib discipline: encode(decode(x)) == x.
  std::optional<std::uint16_t> wirePayloadLen{};

  Bytes encode(BytesView payload) const;
};

/// Parses the fixed header into `header`, and points `payload` at the bytes
/// payloadLength covers and `trailer` at the link-layer slack past them;
/// both alias `raw`. All three are the caller's, as for decodeIpv4. Returns
/// false, with the header slot and both views empty, when the packet is
/// shorter than the fixed header or not IPv6.
bool decodeIpv6(BytesView raw, std::optional<Ipv6Header>& header,
                BytesView& payload, BytesView& trailer);

/// IPv6 pseudo-header (RFC 8200 §8.1) for upper-layer checksums, built on
/// the stack like ipv4PseudoHeader.
std::array<std::uint8_t, 40> ipv6PseudoHeader(const Ipv6Addr& src,
                                              const Ipv6Addr& dst,
                                              std::uint32_t length,
                                              std::uint8_t nextHeader);

// --- ICMPv6 ------------------------------------------------------------------

enum class Icmpv6Type : std::uint8_t {
  kEchoRequest = 128,
  kEchoReply = 129,
  kRplControl = 155,
};

// RPL control message codes.
inline constexpr std::uint8_t kRplCodeDis = 0x00;
inline constexpr std::uint8_t kRplCodeDio = 0x01;
inline constexpr std::uint8_t kRplCodeDao = 0x02;
inline constexpr std::uint8_t kRplCodeDaoAck = 0x03;

/// Body storage is a template parameter: encoders own their body (Storage =
/// Bytes); the dissector keeps a zero-copy view (Storage = BytesView).
template <class Storage>
struct Icmpv6MessageT {
  Icmpv6Type type = Icmpv6Type::kEchoRequest;
  std::uint8_t code = 0;
  Storage body{};
  /// Checksum as seen on the wire; parsers always set it (valid or not),
  /// builders leave it unset and get a pseudo-header computed one.
  std::optional<std::uint16_t> wireChecksum{};

  /// Serializes with the checksum over the IPv6 pseudo-header (or the
  /// verbatim wire checksum when set).
  Bytes encode(const Ipv6Addr& src, const Ipv6Addr& dst) const;
};

using Icmpv6Message = Icmpv6MessageT<Bytes>;
using Icmpv6MessageView = Icmpv6MessageT<BytesView>;

/// Parses the message's structure into `slot`; false, with the slot empty,
/// when it is shorter than its 4-byte header. The checksum is kept in
/// wireChecksum but not checked; verifyIcmpv6Checksum gives the verdict.
bool decodeIcmpv6(BytesView raw, std::optional<Icmpv6MessageView>& slot);

/// True when the whole message checksums to zero over the IPv6 pseudo-header
/// of src, dst and the message's length.
bool verifyIcmpv6Checksum(BytesView message, const Ipv6Addr& src,
                          const Ipv6Addr& dst);

// --- RPL ---------------------------------------------------------------------

/// DODAG Information Object — a router advertising its rank in the tree.
/// Sinkhole attackers advertise an artificially low rank here.
struct RplDio {
  std::uint8_t instanceId = 0;
  std::uint8_t versionNumber = 0;
  std::uint16_t rank = 0;
  std::uint8_t dtsn = 0;
  Ipv6Addr dodagId{};
  // Wire-preservation: bytes the detectors ignore but the codec must keep.
  std::uint8_t groundedMopPrf = 0;  ///< byte 4: G / MOP / Prf
  std::uint8_t flags = 0;           ///< byte 6
  std::uint8_t reserved = 0;        ///< byte 7

  Bytes encodeBody() const;
};

/// Parses an ICMPv6 RPL body into `slot`; false, with the slot empty, when
/// it is shorter than a DIO's 24 bytes.
bool decodeRplDio(BytesView body, std::optional<RplDio>& slot);

/// Destination Advertisement Object — downward route registration.
struct RplDao {
  std::uint8_t instanceId = 0;
  std::uint8_t daoSequence = 0;
  Ipv6Addr dodagId{};
  Ipv6Addr target{};
  // Wire-preservation: bytes the detectors ignore but the codec must keep.
  std::uint8_t kdFlags = 0x40;  ///< byte 1: K/D flags (default: ack requested)
  std::uint8_t reserved = 0;    ///< byte 2

  Bytes encodeBody() const;
};

/// Parses an ICMPv6 RPL body into `slot`; false, with the slot empty, when
/// it is shorter than a DAO's 36 bytes.
bool decodeRplDao(BytesView body, std::optional<RplDao>& slot);

}  // namespace kalis::net
