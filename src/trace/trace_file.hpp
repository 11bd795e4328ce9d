// Binary capture-trace format ("KTRC"), the record-and-replay substrate.
//
// The paper's evaluation records traces of real device traffic and replays
// them with attack symptoms spliced in (§VI-A). This module provides the
// same workflow: serialize CapturedPackets to disk or memory, read them
// back and merge traces. A Trace is the one form recorded traffic takes on
// the way into an engine: callers loop KalisNode::replayFeed over it, which
// advances the node's clock to each capture timestamp so detection runs "as
// if operating on live traffic", or hand it to Pipeline::enqueueBatch.
//
// Record layout (all integers little-endian):
//   file   := magic("KTRC") u32 | version u16 | record*
//   record := medium u8 | channel i16 | rssiDeciDbm i16 | timestamp u64
//             | length u32 | bytes[length] | crc32 u32
// The CRC covers the record from `medium` through the frame bytes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace kalis::trace {

using Trace = std::vector<net::CapturedPacket>;

/// Whether a KTRC record can hold `rssiDbm`, which it stores as int16
/// deci-dBm (about ±3276.8 dBm); NaN and ±inf never fit.
bool ktrcHoldsRssi(double rssiDbm);

/// Serializes packets into the KTRC byte stream. Every packet's RSSI must
/// satisfy ktrcHoldsRssi.
class TraceWriter {
 public:
  TraceWriter();
  void append(const net::CapturedPacket& pkt);
  const Bytes& buffer() const { return buffer_; }
  /// Writes the accumulated buffer to a file. Returns false on I/O error.
  bool writeFile(const std::string& path) const;

 private:
  Bytes buffer_;
};

/// Parses a KTRC byte stream into capture-time order (sortByCaptureTime).
/// Stops at the first corrupt record (CRC or structural failure) and
/// reports how many records were recovered.
struct TraceReadResult {
  Trace packets;
  bool truncated = false;  ///< true if a corrupt/partial record was hit
};

TraceReadResult readTrace(BytesView data);
std::optional<TraceReadResult> readTraceFile(const std::string& path);

/// Serializes a whole trace (convenience over TraceWriter).
Bytes serializeTrace(const Trace& trace);

/// Merges traces by timestamp (stable for ties) — how attack symptom
/// packets get spliced into a recorded benign trace.
Trace mergeTraces(const Trace& a, const Trace& b);

/// Stable-sorts a trace by capture timestamp, the order replayFeed and
/// enqueueBatch require. Both readers apply it: a file's record order need
/// not be capture order (a pcap merged from several interfaces steps back
/// in time), and a module alert stamped with an earlier capture time than
/// one already published would break the pipeline merge's ordering.
void sortByCaptureTime(Trace& trace);

}  // namespace kalis::trace
