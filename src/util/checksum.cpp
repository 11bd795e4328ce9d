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

/// CRC-16/XMODEM (poly 0x1021, MSB first), slicing-by-8: table[0][i] is
/// the CRC register after shifting byte i through a zero register, and
/// table[k][i] is table[k-1][i] shifted on by one more zero byte, so eight
/// lookups fold eight input bytes at once.
using Crc16Tables = std::array<std::array<std::uint16_t, 256>, 8>;

Crc16Tables makeCrc16Tables() {
  Crc16Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t c = static_cast<std::uint16_t>(i << 8);
    for (int k = 0; k < 8; ++k) {
      c = (c & 0x8000) ? static_cast<std::uint16_t>((c << 1) ^ 0x1021)
                       : static_cast<std::uint16_t>(c << 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint16_t prev = tables[k - 1][i];
      tables[k][i] =
          static_cast<std::uint16_t>((prev << 8) ^ tables[0][prev >> 8]);
    }
  }
  return tables;
}

/// CRC-32 (reflected poly 0xedb88320), slicing-by-8: table[0][i] is the
/// register after shifting byte i through a zero register, and table[k][i]
/// is table[k-1][i] shifted on by one more zero byte, so eight lookups fold
/// eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables makeCrc32Tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

std::uint32_t loadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
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
  static const Crc16Tables t = makeCrc16Tables();
  std::uint16_t crc = 0x0000;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // The 16-bit register is shifted out entirely by the first two bytes of
  // each step, so it folds into those two bytes' lookups.
  for (; n >= 8; p += 8, n -= 8) {
    crc = static_cast<std::uint16_t>(
        t[7][p[0] ^ (crc >> 8)] ^ t[6][p[1] ^ (crc & 0xff)] ^ t[5][p[2]] ^
        t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
  }
  for (; n > 0; ++p, --n) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ t[0][(crc >> 8) ^ *p]);
  }
  return crc;
}

std::uint32_t crc32(BytesView data) {
  static const Crc32Tables t = makeCrc32Tables();
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ loadLe32(p);
    const std::uint32_t hi = loadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
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
