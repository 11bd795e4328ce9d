// Classic pcap (libpcap 2.4) reader/writer — the bridge between Kalis and
// recorded reality: captures written by real sniffers replay through the
// engines, and simulator traffic dumps into files any pcap tool can open.
//
// File layout (all integers little-endian, magic 0xa1b2c3d4 = microsecond
// timestamps):
//   file   := magic u32 | major u16 | minor u16 | thiszone i32 | sigfigs u32
//             | snaplen u32 | network(DLT) u32 | record*
//   record := ts_sec u32 | ts_usec u32 | incl_len u32 | orig_len u32 | bytes
//
// The file-level DLT comes from net::MediumDlt — one homogeneous medium per
// file (DLT 195/105/251), readable by Wireshark/tcpdump. Mixed-medium
// captures use DLT_USER0 (147) with a 25-byte Kalis pseudo-header prepended
// to every record:
//   medium u8 | channel i32 | rssiBits u64 (IEEE-754 double) | capturedBy u32
//   | captureSeq u64
// which preserves RxMeta losslessly (KTRC quantizes RSSI to deci-dBm; the
// mixed pcap mode does not — required for byte-identical SIEM replay). The
// pseudo-header is outside input: a record naming no Kalis medium or
// carrying an RSSI a KTRC log cannot hold (NaN, ±inf, beyond about
// ±3276.8 dBm; trace::ktrcHoldsRssi) ends the read like a truncated record,
// keeping the packets before it.
//
// A read yields a Trace, which callers replay like any other recorded trace
// (KalisNode::replayFeed per packet, or Pipeline::enqueueBatch).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/medium_dlt.hpp"
#include "trace/trace_file.hpp"

namespace kalis::trace {

/// Serializes packets into a pcap byte stream with the given file-level DLT.
/// Use net::kDltKalisMixed for heterogeneous traces with full RxMeta;
/// append() silently drops packets whose medium does not match a
/// homogeneous file DLT (count via dropped()).
class PcapWriter {
 public:
  explicit PcapWriter(std::uint32_t dlt);
  void append(const net::CapturedPacket& pkt);
  const Bytes& buffer() const { return buffer_; }
  std::size_t dropped() const { return dropped_; }
  /// Writes the accumulated buffer to a file. Returns false on I/O error.
  bool writeFile(const std::string& path) const;

 private:
  Bytes buffer_;
  std::uint32_t dlt_;
  std::size_t dropped_ = 0;
};

/// Parse result; mirrors TraceReadResult and adds the file DLT.
struct PcapReadResult {
  Trace packets;
  std::uint32_t dlt = 0;
  bool truncated = false;  ///< true if a bad record was hit (see top)
};

/// Parses a pcap byte stream into capture-time order (sortByCaptureTime).
/// Frames whose DLT maps to no Kalis medium make the whole read fail
/// (nullopt) — an unsupported link type, not a corrupt file. Timestamps
/// land on the virtual clock as sec*1e6 + usec.
std::optional<PcapReadResult> readPcap(BytesView data);
std::optional<PcapReadResult> readPcapFile(const std::string& path);

/// Serializes a whole trace (convenience over PcapWriter).
Bytes serializePcap(const Trace& trace, std::uint32_t dlt);

}  // namespace kalis::trace
