// Bidirectional codec: the serializer counterpart to dissect().
//
// Follows the p4_pdpi packetlib discipline: the parser keeps every bit it
// reads (named fields for what detectors consume, wire-preservation fields
// and trailer views for the rest), so serialization is total and exact:
//
//     serialize(dissect(pkt)) == pkt.raw        for ANY input bytes,
//
// including truncated, mutated and checksum-corrupt frames — at each layer
// the serializer re-encodes the inner layer when it parsed and falls back to
// the retained payload view verbatim when it did not.
//
// Builders get the complementary direction: a Dissection assembled from
// owning structs (wire fields left at their defaults) serializes to the same
// bytes the per-layer encode() helpers emit, with checksums computed fresh.
//
// toReadableByteString() renders a dissection as a deterministic, line-based
// textual form (one line per parsed layer, every preserved field shown) —
// the golden-file format for codec regression tests.
#pragma once

#include <string>

#include "net/packet.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

/// Re-serializes a dissection to wire bytes. For any d = dissect(pkt) the
/// result equals pkt.raw exactly. The dissection's views must still be
/// alive (i.e. the capture buffer they alias must not have been freed).
Bytes serialize(const Dissection& d);

/// Deterministic textual rendering of every parsed layer and preserved wire
/// field — the packetlib-style "readable byte string" used by golden tests.
/// Ends with a newline.
std::string toReadableByteString(const Dissection& d);

}  // namespace kalis::net
