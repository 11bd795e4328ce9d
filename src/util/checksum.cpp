#include "util/checksum.hpp"

#include <array>

namespace kalis {

namespace {

std::uint32_t sumOnes(BytesView data, std::uint32_t acc, bool& oddOffset) {
  std::size_t i = 0;
  if (oddOffset && !data.empty()) {
    acc += data[0];
    i = 1;
    oddOffset = false;
  }
  for (; i + 1 < data.size(); i += 2) {
    acc += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    acc += static_cast<std::uint32_t>(data[i]) << 8;
    oddOffset = true;
  }
  return acc;
}

std::uint16_t foldOnes(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

/// CRC-16/XMODEM (poly 0x1021, MSB first): table[i] is the CRC register
/// after shifting byte i through a zero register.
std::array<std::uint16_t, 256> makeCrc16Table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t c = static_cast<std::uint16_t>(i << 8);
    for (int k = 0; k < 8; ++k) {
      c = (c & 0x8000) ? static_cast<std::uint16_t>((c << 1) ^ 0x1021)
                       : static_cast<std::uint16_t>(c << 1);
    }
    table[i] = c;
  }
  return table;
}

std::array<std::uint32_t, 256> makeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint16_t internetChecksum(BytesView data) {
  bool odd = false;
  return foldOnes(sumOnes(data, 0, odd));
}

std::uint16_t internetChecksum2(BytesView a, BytesView b) {
  // Note: correctness requires 'a' (the pseudo-header) to be even-length,
  // which holds for both the IPv4 and IPv6 pseudo-headers.
  bool odd = false;
  std::uint32_t acc = sumOnes(a, 0, odd);
  acc = sumOnes(b, acc, odd);
  return foldOnes(acc);
}

std::uint16_t crc16Ccitt(BytesView data) {
  static const auto table = makeCrc16Table();
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ table[(crc >> 8) ^ byte]);
  }
  return crc;
}

std::uint32_t crc32(BytesView data) {
  static const auto table = makeCrc32Table();
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint64_t fnv1a64(BytesView data, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace kalis
