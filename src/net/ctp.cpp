#include "net/ctp.hpp"

#include "net/ieee802154.hpp"

namespace kalis::net {

template <class Storage>
Bytes CtpDataT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(options);
  w.u8(thl);
  w.u16be(etx);
  w.u16be(origin.value);
  w.u8(seqno);
  w.u8(collectId);
  w.raw(payload);
  return out;
}

template struct CtpDataT<Bytes>;
template struct CtpDataT<BytesView>;

bool decodeCtpData(BytesView raw, std::optional<CtpDataView>& slot) {
  if (raw.size() < 8) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = raw.data();
  CtpDataView& d = slot.emplace();
  d.options = p[0];
  d.thl = p[1];
  d.etx = loadU16be(p + 2);
  d.origin = Mac16{loadU16be(p + 4)};
  d.seqno = p[6];
  d.collectId = p[7];
  d.payload = raw.subspan(8);  // aliases `raw`
  return true;
}

Bytes CtpRoutingBeacon::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(options);
  w.u16be(parent.value);
  w.u16be(etx);
  return out;
}

bool decodeCtpBeacon(BytesView raw, std::optional<CtpRoutingBeacon>& slot) {
  if (raw.size() < 5) {
    slot.reset();
    return false;
  }
  CtpRoutingBeacon& b = slot.emplace();
  b.options = raw[0];
  b.parent = Mac16{loadU16be(raw.data() + 1)};
  b.etx = loadU16be(raw.data() + 3);
  return true;
}

Bytes wrapTinyosAm(std::uint8_t amId, BytesView inner) {
  Bytes out;
  out.reserve(inner.size() + 2);
  out.push_back(kDispatchTinyosAm);
  out.push_back(amId);
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

}  // namespace kalis::net
