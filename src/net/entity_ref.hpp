// Allocation-free entity identifiers for the per-packet hot path.
//
// Detection modules historically keyed their per-victim/per-suspect state by
// the knowgget entity *string* ("0x0003", "aa:bb:cc:dd:ee:ff", "10.0.0.7"),
// which costs a heap allocation per lookup on every captured packet. An
// EntityRef is the same identity as a fixed-size, trivially-copyable value:
// an address-family tag plus up to 16 canonical bytes. The knowgget string is
// recovered with toString() only when an alert or knowledge entry is actually
// emitted — i.e. off the per-packet path.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

class EntityRef {
 public:
  enum class Kind : std::uint8_t {
    kNone = 0,        ///< no identity ("?" in knowgget labels)
    kBroadcast,       ///< the BLE "broadcast" pseudo-destination
    kMac16,           ///< 802.15.4 short address (2 bytes, big-endian)
    kMac48,           ///< EUI-48, logical byte order
    kIpv4,            ///< 4 octets, network order
    kIpv6,            ///< 16 bytes
  };

  constexpr EntityRef() = default;

  static constexpr EntityRef none() { return EntityRef{}; }
  static constexpr EntityRef broadcastLabel() {
    EntityRef r;
    r.kind_ = Kind::kBroadcast;
    return r;
  }
  static constexpr EntityRef of(Mac16 a) {
    EntityRef r;
    r.kind_ = Kind::kMac16;
    r.len_ = 2;
    r.data_[0] = static_cast<std::uint8_t>(a.value >> 8);
    r.data_[1] = static_cast<std::uint8_t>(a.value & 0xff);
    return r;
  }
  static constexpr EntityRef of(const Mac48& a) {
    EntityRef r;
    r.kind_ = Kind::kMac48;
    r.len_ = 6;
    for (std::size_t i = 0; i < 6; ++i) r.data_[i] = a.bytes[i];
    return r;
  }
  static constexpr EntityRef of(Ipv4Addr a) {
    EntityRef r;
    r.kind_ = Kind::kIpv4;
    r.len_ = 4;
    r.data_[0] = static_cast<std::uint8_t>(a.value >> 24);
    r.data_[1] = static_cast<std::uint8_t>((a.value >> 16) & 0xff);
    r.data_[2] = static_cast<std::uint8_t>((a.value >> 8) & 0xff);
    r.data_[3] = static_cast<std::uint8_t>(a.value & 0xff);
    return r;
  }
  static constexpr EntityRef of(const Ipv6Addr& a) {
    EntityRef r;
    r.kind_ = Kind::kIpv6;
    r.len_ = 16;
    for (std::size_t i = 0; i < 16; ++i) r.data_[i] = a.bytes[i];
    return r;
  }

  constexpr Kind kind() const { return kind_; }
  /// True for any identity that names something (including "broadcast").
  constexpr bool valid() const { return kind_ != Kind::kNone; }
  BytesView bytes() const { return BytesView(data_.data(), len_); }

  Mac16 asMac16() const {
    return Mac16{static_cast<std::uint16_t>((data_[0] << 8) | data_[1])};
  }
  Mac48 asMac48() const {
    Mac48 a;
    for (std::size_t i = 0; i < 6; ++i) a.bytes[i] = data_[i];
    return a;
  }
  Ipv4Addr asIpv4() const {
    return Ipv4Addr{(static_cast<std::uint32_t>(data_[0]) << 24) |
                    (static_cast<std::uint32_t>(data_[1]) << 16) |
                    (static_cast<std::uint32_t>(data_[2]) << 8) |
                    static_cast<std::uint32_t>(data_[3])};
  }
  Ipv6Addr asIpv6() const {
    Ipv6Addr a;
    for (std::size_t i = 0; i < 16; ++i) a.bytes[i] = data_[i];
    return a;
  }

  /// Stable 64-bit hash (FNV-1a over kind + canonical bytes). Used for shard
  /// routing, so its value is part of the pipeline's determinism contract.
  constexpr std::uint64_t key() const {
    std::uint64_t h = 1469598103934665603ull;
    h ^= static_cast<std::uint8_t>(kind_);
    h *= 1099511628211ull;
    for (std::size_t i = 0; i < len_; ++i) {
      h ^= data_[i];
      h *= 1099511628211ull;
    }
    return h;
  }

  /// Knowgget label, byte-identical to the legacy string accessors:
  /// "?", "broadcast", "0x0003", "aa:bb:cc:dd:ee:ff", "10.0.0.7", "fe80::...".
  std::string toString() const;

  /// Inverse of toString(): the identity whose label is exactly `label`, or
  /// nullopt when no identity formats that way ("0x3" is not "0x0003"). So
  /// `fromLabel(s) == r` holds exactly when `r.toString() == s`, which lets
  /// a knowgget value be compared against refs without formatting them.
  static std::optional<EntityRef> fromLabel(std::string_view label);

  // Unused tail bytes are always zero, so member-wise comparison is exact.
  auto operator<=>(const EntityRef&) const = default;

 private:
  Kind kind_ = Kind::kNone;
  std::uint8_t len_ = 0;
  std::array<std::uint8_t, 16> data_{};
};

static_assert(std::is_trivially_copyable_v<EntityRef>);

}  // namespace kalis::net

template <>
struct std::hash<kalis::net::EntityRef> {
  std::size_t operator()(const kalis::net::EntityRef& r) const noexcept {
    return static_cast<std::size_t>(r.key());
  }
};
