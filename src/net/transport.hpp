// TCP, UDP and ICMP segments.
//
// Builders emit the 20-byte base TCP header (no options) — enough for the
// SYN-flood detection path, which keys off flags and the 4-tuple. The parser
// additionally preserves options, the urgent pointer and the on-wire checksum
// so the codec can re-emit segments verbatim. The decoders parse structure
// only; each verify* function checks a segment's checksum (over the
// appropriate pseudo-header) when something asks for the verdict.
#pragma once

#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "net/ipv4.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

// --- TCP --------------------------------------------------------------------

struct TcpFlags {
  bool fin = false;
  bool syn = false;
  bool rst = false;
  bool psh = false;
  bool ack = false;
  std::uint8_t extra = 0;  ///< URG/ECE/CWR bits (0xE0), kept verbatim

  std::uint8_t encode() const;
  static TcpFlags decode(std::uint8_t bits);
  bool isSynOnly() const { return syn && !ack && !fin && !rst; }
  bool isSynAck() const { return syn && ack; }
};

/// Payload storage is a template parameter: encoders own their payload
/// (Storage = Bytes); the dissector keeps a zero-copy view (Storage =
/// BytesView) aliasing the capture buffer.
template <class Storage>
struct TcpSegmentT {
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  std::uint32_t seq = 0;
  std::uint32_t ackNo = 0;
  TcpFlags flags;
  std::uint16_t window = 65535;
  Storage payload{};
  // Wire-preservation fields (packetlib discipline). Builders leave the
  // defaults, which reproduce the historical options-free header; parsers
  // fill them in so encode(decode(x)) == x.
  Storage options{};                 ///< data offset beyond 20 bytes, verbatim
  std::uint8_t offsetReserved = 0;   ///< low nibble of the data-offset byte
  std::uint16_t urgent = 0;          ///< urgent pointer, verbatim
  /// Checksum as seen on the wire; parsers always set it (valid or not),
  /// builders leave it unset and get a pseudo-header computed one.
  std::optional<std::uint16_t> wireChecksum{};

  /// Serializes with a checksum over the IPv4 pseudo-header (or the verbatim
  /// wire checksum when set).
  Bytes encode(Ipv4Addr src, Ipv4Addr dst) const;
};

using TcpSegment = TcpSegmentT<Bytes>;
using TcpSegmentView = TcpSegmentT<BytesView>;

/// Parses the segment into `slot`; false, with the slot empty, when it is
/// shorter than its header or its data offset is out of range.
bool decodeTcp(BytesView raw, std::optional<TcpSegmentView>& slot);

/// True when `segment` (header and payload) checksums to zero over the IPv4
/// pseudo-header of src, dst and the segment's length.
bool verifyTcpChecksum(BytesView segment, Ipv4Addr src, Ipv4Addr dst);

// --- UDP --------------------------------------------------------------------

template <class Storage>
struct UdpDatagramT {
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  Storage payload{};
  /// Checksum as seen on the wire; parsers always set it, builders leave it
  /// unset and get a computed one (with the RFC 768 zero-avoidance rule).
  std::optional<std::uint16_t> wireChecksum{};

  Bytes encode(Ipv4Addr src, Ipv4Addr dst) const;
};

using UdpDatagram = UdpDatagramT<Bytes>;
using UdpDatagramView = UdpDatagramT<BytesView>;

/// Parses the datagram into `slot`; false, with the slot empty, when it is
/// shorter than its header or its length field is out of range.
bool decodeUdp(BytesView raw, std::optional<UdpDatagramView>& slot);

/// True when the first `length` bytes of `datagram` (its own length field)
/// checksum to zero over the IPv4 pseudo-header; false when that length is
/// below 8 or runs past the buffer.
bool verifyUdpChecksum(BytesView datagram, Ipv4Addr src, Ipv4Addr dst);

// --- ICMP (v4) ---------------------------------------------------------------

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

template <class Storage>
struct IcmpMessageT {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  Storage payload{};
  /// Checksum as seen on the wire; parsers always set it, builders leave it
  /// unset and get a computed one.
  std::optional<std::uint16_t> wireChecksum{};

  Bytes encode() const;
};

using IcmpMessage = IcmpMessageT<Bytes>;
using IcmpMessageView = IcmpMessageT<BytesView>;

/// Parses the message into `slot`; false, with the slot empty, when it is
/// shorter than its 8-byte header.
bool decodeIcmp(BytesView raw, std::optional<IcmpMessageView>& slot);

/// True when the whole message checksums to zero.
bool verifyIcmpChecksum(BytesView message);

// Materialize zero-copy views into owning structs — the explicit copy points
// for code that retains a segment past the dissection's lifetime (e.g. the
// InternetCloud handlers, which run after the WAN latency).
inline TcpSegment toOwned(const TcpSegmentView& v) {
  return TcpSegment{v.srcPort,        v.dstPort, v.seq,
                    v.ackNo,          v.flags,   v.window,
                    toBytes(v.payload), toBytes(v.options),
                    v.offsetReserved, v.urgent,  v.wireChecksum};
}
inline UdpDatagram toOwned(const UdpDatagramView& v) {
  return UdpDatagram{v.srcPort, v.dstPort, toBytes(v.payload), v.wireChecksum};
}
inline IcmpMessage toOwned(const IcmpMessageView& v) {
  return IcmpMessage{v.type, v.code, v.identifier, v.sequence,
                     toBytes(v.payload), v.wireChecksum};
}

}  // namespace kalis::net
