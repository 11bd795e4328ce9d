// Byte-level serialization support for the packet stack.
//
// Wire formats in this repository are encoded/decoded explicitly through
// ByteWriter / ByteReader so that the byte layout of every protocol header is
// visible, testable, and consumable by the signature-matching baseline (the
// Snort-like engine matches raw bytes exactly as the real tool would).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace kalis {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

// Unchecked field loads; `p` points at the field's first byte, and the caller
// has already checked that the whole field is in range. The protocol decoders
// check a header's length once and then read each field at its fixed offset.
inline std::uint16_t loadU16be(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
inline std::uint16_t loadU16le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[1] << 8) | p[0]);
}
inline std::uint32_t loadU32be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(loadU16be(p)) << 16) | loadU16be(p + 2);
}
inline std::uint32_t loadU32le(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(loadU16le(p + 2)) << 16) | loadU16le(p);
}

/// Appends integer fields to a growing byte vector in either endianness.
/// 802.15.4 and friends are little-endian on the wire; the IP family is
/// big-endian (network order).
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16be(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u16le(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32be(std::uint32_t v) {
    u16be(static_cast<std::uint16_t>(v >> 16));
    u16be(static_cast<std::uint16_t>(v & 0xffff));
  }
  void u32le(std::uint32_t v) {
    u16le(static_cast<std::uint16_t>(v & 0xffff));
    u16le(static_cast<std::uint16_t>(v >> 16));
  }
  void u64be(std::uint64_t v) {
    u32be(static_cast<std::uint32_t>(v >> 32));
    u32be(static_cast<std::uint32_t>(v & 0xffffffff));
  }
  void u64le(std::uint64_t v) {
    u32le(static_cast<std::uint32_t>(v & 0xffffffff));
    u32le(static_cast<std::uint32_t>(v >> 32));
  }

  void raw(BytesView data) { out_.insert(out_.end(), data.begin(), data.end()); }
  void raw(const Bytes& data) { out_.insert(out_.end(), data.begin(), data.end()); }

  std::size_t size() const { return out_.size(); }

  /// Patches a previously written big-endian u16 (e.g. a length or checksum
  /// field filled in after the payload is known).
  void patchU16be(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
  }

 private:
  Bytes& out_;
};

/// Sequentially consumes integer fields from a byte span. All accessors
/// return std::nullopt past the end instead of throwing: malformed or
/// truncated frames are an expected input for an IDS, never an error path.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool atEnd() const { return pos_ == data_.size(); }

  std::optional<std::uint8_t> u8() {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16be() {
    if (remaining() < 2) return std::nullopt;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) | data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  std::optional<std::uint16_t> u16le() {
    if (remaining() < 2) return std::nullopt;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_ + 1] << 8) | data_[pos_];
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32be() {
    auto hi = u16be();
    auto lo = u16be();
    if (!hi || !lo) return std::nullopt;
    return (static_cast<std::uint32_t>(*hi) << 16) | *lo;
  }
  std::optional<std::uint32_t> u32le() {
    auto lo = u16le();
    auto hi = u16le();
    if (!hi || !lo) return std::nullopt;
    return (static_cast<std::uint32_t>(*hi) << 16) | *lo;
  }
  std::optional<std::uint64_t> u64be() {
    auto hi = u32be();
    auto lo = u32be();
    if (!hi || !lo) return std::nullopt;
    return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
  }
  std::optional<std::uint64_t> u64le() {
    auto lo = u32le();
    auto hi = u32le();
    if (!hi || !lo) return std::nullopt;
    return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
  }

  /// Reads exactly n bytes; nullopt if fewer remain.
  std::optional<BytesView> take(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// Consumes and returns everything left.
  BytesView rest() {
    BytesView v = data_.subspan(pos_);
    pos_ = data_.size();
    return v;
  }

  bool skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Materializes a view into an owning vector (the explicit copy point for
/// code that must outlive a zero-copy dissection).
inline Bytes toBytes(BytesView v) { return Bytes(v.begin(), v.end()); }

/// Renders bytes as lowercase hex ("de:ad:be:ef" style without separators).
std::string toHex(BytesView data);

/// Parses a hex string produced by toHex. Returns nullopt on odd length or
/// non-hex characters.
std::optional<Bytes> fromHex(std::string_view hex);

/// Copies a string's characters into a byte vector (no terminator).
Bytes bytesOf(std::string_view s);

}  // namespace kalis
