#include "net/ieee80211.hpp"

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

Mac48 readMac(ByteReader& r) {
  Mac48 a;
  auto bytes = r.take(6);
  if (bytes) std::copy(bytes->begin(), bytes->end(), a.bytes.begin());
  return a;
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

std::optional<WifiFrameView> decodeWifi(BytesView raw) {
  if (raw.size() < 24 + 4) return std::nullopt;
  ByteReader r(raw);
  auto fc0 = *r.u8();
  auto fc1 = *r.u8();
  auto duration = *r.u16le();
  if ((fc0 & 0x03) != 0) return std::nullopt;  // protocol version must be 0

  WifiFrameView f;
  const std::uint8_t type = (fc0 >> 2) & 0x3;
  const std::uint8_t subtype = (fc0 >> 4) & 0xf;
  if (type == 2) {
    f.kind = WifiFrameKind::kData;
    f.dataSubtype = subtype;
  } else if (type == 0 && subtype == 8) {
    f.kind = WifiFrameKind::kBeacon;
  } else if (type == 0 && subtype == 4) {
    f.kind = WifiFrameKind::kProbeRequest;
  } else if (type == 0 && subtype == 12) {
    f.kind = WifiFrameKind::kDeauth;
  } else {
    return std::nullopt;
  }
  f.toDs = fc1 & 0x01;
  f.fromDs = fc1 & 0x02;
  f.protectedFrame = fc1 & 0x40;
  f.fc1Extra = fc1 & static_cast<std::uint8_t>(~0x43);
  f.duration = duration;

  const Mac48 a1 = readMac(r);
  const Mac48 a2 = readMac(r);
  const Mac48 a3 = readMac(r);
  if (f.toDs && !f.fromDs) {
    f.bssid = a1;
    f.src = a2;
    f.dst = a3;
  } else if (!f.toDs && f.fromDs) {
    f.dst = a1;
    f.bssid = a2;
    f.src = a3;
  } else {
    f.dst = a1;
    f.src = a2;
    f.bssid = a3;
  }
  f.seqCtl = *r.u16le();

  const std::size_t bodyLen = r.remaining() - 4;
  f.body = *r.take(bodyLen);  // aliases `raw`
  f.wireFcs = *r.u32le();
  return f;
}

bool verifyWifiFcs(BytesView frame) {
  if (frame.size() < 4) return false;
  const std::size_t n = frame.size() - 4;
  return *ByteReader(frame.subspan(n)).u32le() == crc32(frame.first(n));
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

std::optional<LlcSnapDecoded> llcSnapUnwrap(BytesView body) {
  if (body.size() < 8) return std::nullopt;
  if (body[0] != 0xaa || body[1] != 0xaa || body[2] != 0x03) return std::nullopt;
  LlcSnapDecoded d;
  d.ethertype = static_cast<std::uint16_t>((body[6] << 8) | body[7]);
  d.payload = body.subspan(8);
  return d;
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
