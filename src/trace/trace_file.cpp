#include "trace/trace_file.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/checksum.hpp"

namespace kalis::trace {

namespace {
constexpr std::uint32_t kMagic = 0x4354524bu;  // "KTRC" little-endian
constexpr std::uint16_t kVersion = 1;
}  // namespace

bool ktrcHoldsRssi(double rssiDbm) {
  // The int16 conversion truncates toward zero; NaN fails both comparisons.
  const double deciDbm = rssiDbm * 10.0;
  return deciDbm > -32769.0 && deciDbm < 32768.0;
}

TraceWriter::TraceWriter() {
  ByteWriter w(buffer_);
  w.u32le(kMagic);
  w.u16le(kVersion);
}

void TraceWriter::append(const net::CapturedPacket& pkt) {
  Bytes record;
  ByteWriter w(record);
  w.u8(static_cast<std::uint8_t>(pkt.medium));
  w.u16le(static_cast<std::uint16_t>(pkt.meta.channel));
  w.u16le(static_cast<std::uint16_t>(
      static_cast<std::int16_t>(pkt.meta.rssiDbm * 10.0)));
  w.u64le(pkt.meta.timestamp);
  w.u32le(static_cast<std::uint32_t>(pkt.raw.size()));
  w.raw(pkt.raw);
  const std::uint32_t crc = crc32(BytesView(record));
  ByteWriter out(buffer_);
  out.raw(record);
  out.u32le(crc);
}

bool TraceWriter::writeFile(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  return std::fwrite(buffer_.data(), 1, buffer_.size(), f.get()) ==
         buffer_.size();
}

TraceReadResult readTrace(BytesView data) {
  TraceReadResult result;
  ByteReader r(data);
  auto magic = r.u32le();
  auto version = r.u16le();
  if (!magic || *magic != kMagic || !version || *version != kVersion) {
    result.truncated = true;
    return result;
  }
  while (!r.atEnd()) {
    const std::size_t recordStart = r.position();
    auto medium = r.u8();
    auto channel = r.u16le();
    auto rssi = r.u16le();
    auto timestamp = r.u64le();
    auto length = r.u32le();
    if (!medium || !channel || !rssi || !timestamp || !length ||
        *medium > 2) {
      result.truncated = true;
      break;
    }
    auto frame = r.take(*length);
    auto crc = r.u32le();
    if (!frame || !crc) {
      result.truncated = true;
      break;
    }
    const BytesView recordBytes =
        data.subspan(recordStart, r.position() - 4 - recordStart);
    if (crc32(recordBytes) != *crc) {
      result.truncated = true;
      break;
    }
    net::CapturedPacket pkt;
    pkt.medium = static_cast<net::Medium>(*medium);
    pkt.meta.channel = static_cast<std::int16_t>(*channel);
    pkt.meta.rssiDbm = static_cast<std::int16_t>(*rssi) / 10.0;
    pkt.meta.timestamp = *timestamp;
    pkt.raw.assign(frame->begin(), frame->end());
    result.packets.push_back(std::move(pkt));
  }
  sortByCaptureTime(result.packets);
  return result;
}

std::optional<TraceReadResult> readTraceFile(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return std::nullopt;
  Bytes data;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f.get())) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  return readTrace(BytesView(data));
}

Bytes serializeTrace(const Trace& trace) {
  TraceWriter w;
  for (const auto& pkt : trace) w.append(pkt);
  return w.buffer();
}

Trace mergeTraces(const Trace& a, const Trace& b) {
  Trace merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  sortByCaptureTime(merged);
  return merged;
}

void sortByCaptureTime(Trace& trace) {
  const auto earlier = [](const net::CapturedPacket& x,
                          const net::CapturedPacket& y) {
    return x.meta.timestamp < y.meta.timestamp;
  };
  if (!std::is_sorted(trace.begin(), trace.end(), earlier)) {
    std::stable_sort(trace.begin(), trace.end(), earlier);
  }
}

}  // namespace kalis::trace
