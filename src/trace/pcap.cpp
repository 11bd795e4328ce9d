#include "trace/pcap.hpp"

#include <bit>
#include <cstdio>
#include <memory>

namespace kalis::trace {

namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4u;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;
constexpr std::uint32_t kSnaplen = 65535;
constexpr std::size_t kMixedPseudoHeaderLen = 25;

void writePseudoHeader(ByteWriter& w, const net::CapturedPacket& pkt) {
  w.u8(static_cast<std::uint8_t>(pkt.medium));
  w.u32le(static_cast<std::uint32_t>(pkt.meta.channel));
  w.u64le(std::bit_cast<std::uint64_t>(pkt.meta.rssiDbm));
  w.u32le(pkt.meta.capturedBy);
  w.u64le(pkt.meta.captureSeq);
}

bool readPseudoHeader(BytesView bytes, net::CapturedPacket& pkt) {
  ByteReader r(bytes);
  auto medium = r.u8();
  auto channel = r.u32le();
  auto rssiBits = r.u64le();
  auto capturedBy = r.u32le();
  auto captureSeq = r.u64le();
  if (!captureSeq || *medium > 2) return false;
  // Outside input: NaN or ±inf RSSI would break the modules' RSSI
  // orderings, and a Data Store logging the replay writes it to KTRC.
  const double rssiDbm = std::bit_cast<double>(*rssiBits);
  if (!ktrcHoldsRssi(rssiDbm)) return false;
  pkt.medium = static_cast<net::Medium>(*medium);
  pkt.meta.channel = static_cast<std::int32_t>(*channel);
  pkt.meta.rssiDbm = rssiDbm;
  pkt.meta.capturedBy = *capturedBy;
  pkt.meta.captureSeq = *captureSeq;
  return true;
}

Bytes readWholeFile(const std::string& path, bool& ok) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  Bytes data;
  ok = static_cast<bool>(f);
  if (!ok) return data;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f.get())) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  return data;
}

}  // namespace

PcapWriter::PcapWriter(std::uint32_t dlt) : dlt_(dlt) {
  ByteWriter w(buffer_);
  w.u32le(kMagicMicros);
  w.u16le(kVersionMajor);
  w.u16le(kVersionMinor);
  w.u32le(0);  // thiszone
  w.u32le(0);  // sigfigs
  w.u32le(kSnaplen);
  w.u32le(dlt_);
}

void PcapWriter::append(const net::CapturedPacket& pkt) {
  const bool mixed = dlt_ == net::kDltKalisMixed;
  if (!mixed && net::dltForMedium(pkt.medium) != dlt_) {
    ++dropped_;
    return;
  }
  const std::size_t len =
      pkt.raw.size() + (mixed ? kMixedPseudoHeaderLen : 0);
  ByteWriter w(buffer_);
  w.u32le(static_cast<std::uint32_t>(pkt.meta.timestamp / 1'000'000));
  w.u32le(static_cast<std::uint32_t>(pkt.meta.timestamp % 1'000'000));
  w.u32le(static_cast<std::uint32_t>(len));  // incl_len
  w.u32le(static_cast<std::uint32_t>(len));  // orig_len
  if (mixed) writePseudoHeader(w, pkt);
  w.raw(pkt.raw);
}

bool PcapWriter::writeFile(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  return std::fwrite(buffer_.data(), 1, buffer_.size(), f.get()) ==
         buffer_.size();
}

std::optional<PcapReadResult> readPcap(BytesView data) {
  ByteReader r(data);
  auto magic = r.u32le();
  auto major = r.u16le();
  auto minor = r.u16le();
  r.u32le();  // thiszone
  r.u32le();  // sigfigs
  auto snaplen = r.u32le();
  auto dlt = r.u32le();
  if (!magic || *magic != kMagicMicros || !major || !minor || !snaplen ||
      !dlt) {
    return std::nullopt;
  }
  const bool mixed = *dlt == net::kDltKalisMixed;
  std::optional<net::Medium> fileMedium;
  if (!mixed) {
    fileMedium = net::mediumForDlt(*dlt);
    if (!fileMedium) return std::nullopt;  // unsupported link type
  }

  PcapReadResult result;
  result.dlt = *dlt;
  while (!r.atEnd()) {
    auto tsSec = r.u32le();
    auto tsUsec = r.u32le();
    auto inclLen = r.u32le();
    auto origLen = r.u32le();
    if (!tsSec || !tsUsec || !inclLen || !origLen) {
      result.truncated = true;
      break;
    }
    auto bytes = r.take(*inclLen);
    if (!bytes || (mixed && bytes->size() < kMixedPseudoHeaderLen)) {
      result.truncated = true;
      break;
    }
    net::CapturedPacket pkt;
    pkt.meta.timestamp =
        static_cast<SimTime>(*tsSec) * 1'000'000 + *tsUsec;
    BytesView frame = *bytes;
    if (mixed) {
      if (!readPseudoHeader(frame.subspan(0, kMixedPseudoHeaderLen), pkt)) {
        result.truncated = true;
        break;
      }
      frame = frame.subspan(kMixedPseudoHeaderLen);
    } else {
      pkt.medium = *fileMedium;
    }
    pkt.raw.assign(frame.begin(), frame.end());
    result.packets.push_back(std::move(pkt));
  }
  sortByCaptureTime(result.packets);
  return result;
}

std::optional<PcapReadResult> readPcapFile(const std::string& path) {
  bool ok = false;
  const Bytes data = readWholeFile(path, ok);
  if (!ok) return std::nullopt;
  return readPcap(BytesView(data));
}

Bytes serializePcap(const Trace& trace, std::uint32_t dlt) {
  PcapWriter w(dlt);
  for (const auto& pkt : trace) w.append(pkt);
  return w.buffer();
}

}  // namespace kalis::trace
