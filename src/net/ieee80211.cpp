#include "net/ieee80211.hpp"

#include <cstring>

#include "util/checksum.hpp"

namespace kalis::net {

namespace {

// fc byte 0: subtype(4..7) | type(2..3) | version(0..1)
// fc byte 1: order|wep|moreData|pwr|retry|moreFrag|fromDS|toDS
struct FcBits {
  std::uint8_t type;     // 0 mgmt, 2 data
  std::uint8_t subtype;  // mgmt: 8 beacon, 4 probe req, 12 deauth; data: 0
};

FcBits fcBitsFor(WifiFrameKind kind) {
  switch (kind) {
    case WifiFrameKind::kData: return {2, 0};
    case WifiFrameKind::kBeacon: return {0, 8};
    case WifiFrameKind::kProbeRequest: return {0, 4};
    case WifiFrameKind::kDeauth: return {0, 12};
  }
  return {2, 0};
}

void writeMac(ByteWriter& w, const Mac48& a) {
  w.raw(BytesView(a.bytes.data(), a.bytes.size()));
}

/// The inverse of fcBitsFor: the modeled kind fc byte 0 names, if any.
std::optional<WifiFrameKind> kindOf(std::uint8_t fc0) {
  if ((fc0 & 0x03) != 0) return std::nullopt;  // protocol version must be 0
  const std::uint8_t type = (fc0 >> 2) & 0x3;
  const std::uint8_t subtype = (fc0 >> 4) & 0xf;
  if (type == 2) return WifiFrameKind::kData;
  if (type != 0) return std::nullopt;
  switch (subtype) {
    case 8: return WifiFrameKind::kBeacon;
    case 4: return WifiFrameKind::kProbeRequest;
    case 12: return WifiFrameKind::kDeauth;
  }
  return std::nullopt;
}

}  // namespace

template <class Storage>
Bytes WifiFrameT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  FcBits fc = fcBitsFor(kind);
  if (kind == WifiFrameKind::kData) fc.subtype = dataSubtype;
  w.u8(static_cast<std::uint8_t>((fc.subtype << 4) | (fc.type << 2)));
  std::uint8_t fc1 = fc1Extra;
  if (toDs) fc1 |= 0x01;
  if (fromDs) fc1 |= 0x02;
  if (protectedFrame) fc1 |= 0x40;
  w.u8(fc1);
  w.u16le(duration);
  // Physical address ordering depends on direction bits.
  if (toDs && !fromDs) {
    writeMac(w, bssid);
    writeMac(w, src);
    writeMac(w, dst);
  } else if (!toDs && fromDs) {
    writeMac(w, dst);
    writeMac(w, bssid);
    writeMac(w, src);
  } else {
    writeMac(w, dst);
    writeMac(w, src);
    writeMac(w, bssid);
  }
  w.u16le(seqCtl);
  w.raw(body);
  w.u32le(wireFcs ? *wireFcs : crc32(BytesView(out)));
  return out;
}

template struct WifiFrameT<Bytes>;
template struct WifiFrameT<BytesView>;

bool decodeWifi(BytesView raw, std::optional<WifiFrameView>& slot) {
  // fc(2) | duration(2) | addr1..addr3(18) | seqCtl(2) | body | FCS(4)
  const std::optional<WifiFrameKind> kind =
      raw.size() >= 24 + 4 ? kindOf(raw[0]) : std::nullopt;
  if (!kind) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = raw.data();
  const std::uint8_t fc1 = p[1];

  WifiFrameView& f = slot.emplace();
  f.kind = *kind;
  if (*kind == WifiFrameKind::kData) f.dataSubtype = p[0] >> 4;
  f.toDs = fc1 & 0x01;
  f.fromDs = fc1 & 0x02;
  f.protectedFrame = fc1 & 0x40;
  f.fc1Extra = fc1 & static_cast<std::uint8_t>(~0x43);
  f.duration = loadU16le(p + 2);
  // The three addresses' roles depend on the direction bits.
  const std::uint8_t* dst = p + 4;
  const std::uint8_t* src = p + 10;
  const std::uint8_t* bssid = p + 16;
  if (f.toDs && !f.fromDs) {
    bssid = p + 4;
    dst = p + 16;
  } else if (!f.toDs && f.fromDs) {
    bssid = p + 10;
    src = p + 16;
  }
  std::memcpy(f.dst.bytes.data(), dst, 6);
  std::memcpy(f.src.bytes.data(), src, 6);
  std::memcpy(f.bssid.bytes.data(), bssid, 6);
  f.seqCtl = loadU16le(p + 22);
  f.body = raw.subspan(24, raw.size() - 28);  // aliases `raw`
  f.wireFcs = loadU32le(p + raw.size() - 4);
  return true;
}

bool verifyWifiFcs(BytesView frame) {
  if (frame.size() < 4) return false;
  const std::size_t n = frame.size() - 4;
  return loadU32le(frame.data() + n) == crc32(frame.first(n));
}

Bytes llcSnapWrap(std::uint16_t ethertype, BytesView payload) {
  Bytes out;
  ByteWriter w(out);
  w.u8(0xaa);
  w.u8(0xaa);
  w.u8(0x03);
  w.u8(0x00);
  w.u8(0x00);
  w.u8(0x00);
  w.u16be(ethertype);
  w.raw(payload);
  return out;
}

bool llcSnapUnwrap(BytesView body, std::optional<LlcSnapDecoded>& slot) {
  if (body.size() < 8 || body[0] != 0xaa || body[1] != 0xaa ||
      body[2] != 0x03) {
    slot.reset();
    return false;
  }
  LlcSnapDecoded& d = slot.emplace();
  d.ethertype = loadU16be(body.data() + 6);
  d.payload = body.subspan(8);
  return true;
}

Bytes beaconBody(const std::string& ssid) {
  Bytes out;
  ByteWriter w(out);
  w.u8(0x00);  // element id: SSID
  w.u8(static_cast<std::uint8_t>(ssid.size()));
  w.raw(bytesOf(ssid));
  return out;
}

std::optional<std::string> beaconSsid(BytesView body) {
  if (body.size() < 2 || body[0] != 0x00) return std::nullopt;
  const std::size_t len = body[1];
  if (body.size() < 2 + len) return std::nullopt;
  return std::string(body.begin() + 2, body.begin() + 2 + len);
}

}  // namespace kalis::net
