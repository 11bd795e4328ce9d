// TinyOS Collection Tree Protocol (CTP) frames, as carried by the TelosB WSN
// in the paper's testbed.
//
// CTP data frame (after the TinyOS AM dispatch bytes):
//   options(1) | THL(1) | ETX(2 BE) | origin(2 BE) | seqno(1) | collectId(1) | payload
// THL ("time has lived") increments at every forwarding hop — the Topology
// Discovery module uses THL > 0 as direct evidence of a multi-hop network.
//
// CTP routing beacon:
//   options(1) | parent(2 BE) | ETX(2 BE)
#pragma once

#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

/// Payload storage is a template parameter: encoders own their payload
/// (Storage = Bytes); the dissector keeps a zero-copy view (Storage =
/// BytesView) aliasing the capture buffer.
template <class Storage>
struct CtpDataT {
  std::uint8_t options = 0;
  std::uint8_t thl = 0;        ///< hops travelled so far
  std::uint16_t etx = 0;       ///< sender's route cost estimate
  Mac16 origin{0};             ///< original data source
  std::uint8_t seqno = 0;      ///< origin-assigned sequence number
  std::uint8_t collectId = 0;  ///< collection instance ("AM type" of the data)
  Storage payload{};

  Bytes encode() const;
};

using CtpData = CtpDataT<Bytes>;
using CtpDataView = CtpDataT<BytesView>;

/// Parses a CTP data frame into `slot`; false, with the slot empty, when it
/// is shorter than its 8-byte header. The decoded payload aliases `raw`.
bool decodeCtpData(BytesView raw, std::optional<CtpDataView>& slot);

/// Materializes a zero-copy view into an owning frame — the explicit copy
/// point for forwarders that mutate or retain a dissected frame.
inline CtpData toOwned(const CtpDataView& v) {
  return CtpData{v.options, v.thl, v.etx, v.origin,
                 v.seqno,   v.collectId, toBytes(v.payload)};
}

struct CtpRoutingBeacon {
  std::uint8_t options = 0;
  Mac16 parent{Mac16::kBroadcast};  ///< current parent in the tree
  std::uint16_t etx = 0;            ///< advertised route cost

  Bytes encode() const;
};

/// Parses a routing beacon's five bytes into `slot`; false, with the slot
/// empty, when fewer remain.
bool decodeCtpBeacon(BytesView raw, std::optional<CtpRoutingBeacon>& slot);

/// Wraps a CTP payload in the TinyOS AM dispatch envelope
/// (kDispatchTinyosAm, AM id, payload).
Bytes wrapTinyosAm(std::uint8_t amId, BytesView inner);

}  // namespace kalis::net
