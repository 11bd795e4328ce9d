#include "net/entity_ref.hpp"

namespace kalis::net {

std::string EntityRef::toString() const {
  switch (kind_) {
    case Kind::kNone: return "?";
    case Kind::kBroadcast: return "broadcast";
    case Kind::kMac16: return net::toString(asMac16());
    case Kind::kMac48: return net::toString(asMac48());
    case Kind::kIpv4: return net::toString(asIpv4());
    case Kind::kIpv6: return net::toString(asIpv6());
  }
  return "?";
}

std::optional<EntityRef> EntityRef::fromLabel(std::string_view label) {
  std::optional<EntityRef> ref;
  if (label == "?") {
    ref = none();
  } else if (label == "broadcast") {
    ref = broadcastLabel();
  } else if (auto mac16 = parseMac16(label)) {
    ref = of(*mac16);
  } else if (auto mac48 = parseMac48(label)) {
    ref = of(*mac48);
  } else if (auto ipv4 = parseIpv4(label)) {
    ref = of(*ipv4);
  } else if (label.size() == 39) {  // eight ':'-separated 4-digit groups
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    Ipv6Addr a;
    for (std::size_t i = 0; i < 16; ++i) {
      const std::size_t at = i / 2 * 5 + i % 2 * 2;
      const int hi = hex(label[at]);
      const int lo = hex(label[at + 1]);
      if (hi < 0 || lo < 0) return std::nullopt;
      a.bytes[i] = static_cast<std::uint8_t>(hi << 4 | lo);
    }
    ref = of(a);
  }
  // The parsers accept spellings toString() never produces; only the
  // canonical one names the entity.
  if (ref && ref->toString() != label) return std::nullopt;
  return ref;
}

}  // namespace kalis::net
