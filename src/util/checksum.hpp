// Checksums used by the packet stack.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace kalis {

/// RFC 1071 Internet checksum (ones-complement sum), used by IPv4/ICMP/TCP/UDP.
std::uint16_t internetChecksum(BytesView data);

/// Internet checksum over two spans (pseudo-header + segment) without copying.
std::uint16_t internetChecksum2(BytesView a, BytesView b);

/// CRC-16/CCITT (polynomial 0x1021, init 0x0000, unreflected — the
/// CRC-16/XMODEM parameters), the IEEE 802.15.4 FCS. Table-driven, eight
/// bytes per step (slicing-by-8).
std::uint16_t crc16Ccitt(BytesView data);

/// CRC-32 (IEEE 802.3), used by the 802.11 FCS and the trace file format.
/// Table-driven, eight bytes per step (slicing-by-8).
std::uint32_t crc32(BytesView data);

/// 64-bit FNV-1a hash, used for payload fingerprinting (wormhole correlation,
/// data-alteration watchdog) — not a cryptographic hash, but stable and fast.
/// Passing the hash of a prefix as `basis` continues it: the result equals
/// the hash of the prefix and `data` concatenated.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a64(BytesView data, std::uint64_t basis = kFnv1a64Basis);

}  // namespace kalis
