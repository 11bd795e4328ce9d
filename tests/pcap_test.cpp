// trace::pcap.
//
// Covers: classic-pcap write→read roundtrips (homogeneous DLTs and the
// mixed DLT_USER0 mode with its lossless RxMeta pseudo-header), the shared
// medium↔DLT table, malformed/unsupported inputs (including pseudo-headers
// naming no medium or carrying a non-finite RSSI), the file round trip, and
// the --dump-pcap/--pcap guarantee: a trace replays alert for alert after a
// pcap dump/reload cycle.
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/medium_dlt.hpp"
#include "recorded_captures.hpp"
#include "support.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

namespace kalis {
namespace {

using test::tempPath;

net::CapturedPacket makePacket(net::Medium medium, SimTime ts,
                               std::initializer_list<std::uint8_t> bytes) {
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw.assign(bytes);
  pkt.meta.timestamp = ts;
  pkt.meta.rssiDbm = -72.355;  // not representable in deci-dBm: mixed-mode only
  pkt.meta.channel = 11;
  pkt.meta.capturedBy = 42;
  pkt.meta.captureSeq = 7;
  return pkt;
}

// --- medium↔DLT table -------------------------------------------------------------

TEST(MediumDlt, TableMapsEveryMediumBothWays) {
  EXPECT_EQ(net::dltForMedium(net::Medium::kIeee802154),
            net::kDltIeee802154WithFcs);
  EXPECT_EQ(net::dltForMedium(net::Medium::kWifi), net::kDltIeee80211);
  EXPECT_EQ(net::dltForMedium(net::Medium::kBluetooth), net::kDltBleLinkLayer);
  for (const net::MediumDlt& row : net::kMediumDltTable) {
    ASSERT_TRUE(net::mediumForDlt(row.dlt).has_value()) << row.name;
    EXPECT_EQ(*net::mediumForDlt(row.dlt), row.medium) << row.name;
  }
  EXPECT_FALSE(net::mediumForDlt(1).has_value());  // DLT_EN10MB: no medium
  EXPECT_FALSE(net::mediumForDlt(net::kDltKalisMixed).has_value());
}

// --- write→read roundtrips --------------------------------------------------------

TEST(Pcap, MixedModeRoundtripIsLossless) {
  trace::Trace original;
  original.push_back(
      makePacket(net::Medium::kIeee802154, 1'500'000, {0x01, 0x02, 0x03}));
  original.push_back(makePacket(net::Medium::kWifi, 2'000'001, {0xaa}));
  original.push_back(
      makePacket(net::Medium::kBluetooth, 3'999'999, {0xd6, 0xbe, 0x89, 0x8e}));

  const Bytes file = trace::serializePcap(original, net::kDltKalisMixed);
  const auto read = trace::readPcap(BytesView(file));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->dlt, net::kDltKalisMixed);
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(read->packets.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const net::CapturedPacket& a = original[i];
    const net::CapturedPacket& b = read->packets[i];
    EXPECT_EQ(a.medium, b.medium);
    EXPECT_EQ(a.raw, b.raw);
    EXPECT_EQ(a.meta.timestamp, b.meta.timestamp);
    // The pseudo-header stores the raw IEEE-754 bits: bit-exact, unlike
    // KTRC's deci-dBm quantization.
    EXPECT_EQ(a.meta.rssiDbm, b.meta.rssiDbm);
    EXPECT_EQ(a.meta.channel, b.meta.channel);
    EXPECT_EQ(a.meta.capturedBy, b.meta.capturedBy);
    EXPECT_EQ(a.meta.captureSeq, b.meta.captureSeq);
  }
}

TEST(Pcap, HomogeneousRoundtripKeepsBytesAndTimestamps) {
  trace::Trace original;
  original.push_back(
      makePacket(net::Medium::kWifi, 5'000'123, {0x08, 0x01, 0x00, 0x00}));
  original.push_back(makePacket(net::Medium::kWifi, 6'250'000, {0x80}));

  const Bytes file = trace::serializePcap(original, net::kDltIeee80211);
  const auto read = trace::readPcap(BytesView(file));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->dlt, net::kDltIeee80211);
  ASSERT_EQ(read->packets.size(), 2u);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(read->packets[i].medium, net::Medium::kWifi);
    EXPECT_EQ(read->packets[i].raw, original[i].raw);
    EXPECT_EQ(read->packets[i].meta.timestamp, original[i].meta.timestamp);
  }
}

TEST(Pcap, HomogeneousWriterDropsForeignMedia) {
  trace::PcapWriter writer(net::kDltIeee80211);
  writer.append(makePacket(net::Medium::kWifi, 1, {0x11}));
  writer.append(makePacket(net::Medium::kIeee802154, 2, {0x22}));  // dropped
  writer.append(makePacket(net::Medium::kBluetooth, 3, {0x33}));         // dropped
  EXPECT_EQ(writer.dropped(), 2u);
  const auto read = trace::readPcap(BytesView(writer.buffer()));
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->packets.size(), 1u);
  EXPECT_EQ(read->packets[0].raw, Bytes{0x11});
}

// --- malformed inputs -------------------------------------------------------------

TEST(Pcap, RejectsBadMagicAndUnsupportedDlt) {
  EXPECT_FALSE(trace::readPcap(BytesView()).has_value());
  Bytes garbage{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0,
                0,    0,    0,    0,    0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(trace::readPcap(BytesView(garbage)).has_value());

  // Valid header, but DLT_EN10MB (1): Kalis media never ride Ethernet.
  trace::Trace one{makePacket(net::Medium::kWifi, 1, {0x00})};
  Bytes ethernet = trace::serializePcap(one, net::kDltIeee80211);
  ethernet[20] = 1;  // overwrite the network field
  EXPECT_FALSE(trace::readPcap(BytesView(ethernet)).has_value());
}

TEST(Pcap, TruncatedRecordRecoversPrefix) {
  trace::Trace original;
  original.push_back(makePacket(net::Medium::kWifi, 1, {0x01, 0x02}));
  original.push_back(makePacket(net::Medium::kWifi, 2, {0x03, 0x04}));
  Bytes file = trace::serializePcap(original, net::kDltIeee80211);
  file.resize(file.size() - 1);  // chop into the last record's bytes
  const auto read = trace::readPcap(BytesView(file));
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->truncated);
  ASSERT_EQ(read->packets.size(), 1u);
  EXPECT_EQ(read->packets[0].raw, (Bytes{0x01, 0x02}));
}

TEST(Pcap, NonFiniteRssiEndsTheReadAndKeepsThePrefix) {
  // The mixed-mode pseudo-header stores RSSI as raw double bits, so a
  // crafted file can carry NaN or ±inf; none of them may reach the modules.
  for (const double rssi : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(rssi);
    trace::Trace original;
    for (std::uint8_t i = 0; i < 3; ++i) {
      original.push_back(makePacket(net::Medium::kWifi, 1 + i, {i}));
    }
    original[1].meta.rssiDbm = rssi;
    const Bytes file = trace::serializePcap(original, net::kDltKalisMixed);
    const auto read = trace::readPcap(BytesView(file));
    ASSERT_TRUE(read.has_value());
    EXPECT_TRUE(read->truncated);
    ASSERT_FALSE(read->packets.empty());
    EXPECT_EQ(read->packets.size(), 1u);
    EXPECT_EQ(read->packets[0].raw, Bytes{0x00});
  }
}

TEST(Pcap, RssiBeyondKtrcRangeEndsTheReadAndKeepsThePrefix) {
  // A Data Store logging the replay writes KTRC, which stores RSSI as int16
  // deci-dBm: a value it cannot hold must not get past the reader.
  for (const double rssi : {3276.8, -3276.9, 1e300}) {
    SCOPED_TRACE(rssi);
    trace::Trace original;
    for (std::uint8_t i = 0; i < 3; ++i) {
      original.push_back(makePacket(net::Medium::kWifi, 1 + i, {i}));
    }
    original[1].meta.rssiDbm = rssi;
    const Bytes file = trace::serializePcap(original, net::kDltKalisMixed);
    const auto read = trace::readPcap(BytesView(file));
    ASSERT_TRUE(read.has_value());
    EXPECT_TRUE(read->truncated);
    ASSERT_EQ(read->packets.size(), 1u);
    EXPECT_EQ(read->packets[0].raw, Bytes{0x00});
  }
  // The extremes a KTRC record holds still read.
  trace::Trace edge;
  edge.push_back(makePacket(net::Medium::kWifi, 1, {0x01}));
  edge.push_back(makePacket(net::Medium::kWifi, 2, {0x02}));
  edge[0].meta.rssiDbm = 3276.7;
  edge[1].meta.rssiDbm = -3276.8;
  const auto read = trace::readPcap(
      BytesView(trace::serializePcap(edge, net::kDltKalisMixed)));
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->truncated);
  EXPECT_EQ(read->packets.size(), 2u);
}

// A file's record order need not be capture order (a pcap merged from two
// interfaces steps back in time); both readers return capture-time order.
TEST(Pcap, ReadersReturnCaptureTimeOrder) {
  trace::Trace fileOrder;
  fileOrder.push_back(makePacket(net::Medium::kWifi, seconds(2), {0x02}));
  fileOrder.push_back(makePacket(net::Medium::kWifi, seconds(1), {0x01}));
  const auto pcap = trace::readPcap(
      BytesView(trace::serializePcap(fileOrder, net::kDltKalisMixed)));
  ASSERT_TRUE(pcap.has_value());
  const trace::TraceReadResult ktrc =
      trace::readTrace(BytesView(trace::serializeTrace(fileOrder)));
  for (const trace::Trace* read : {&pcap->packets, &ktrc.packets}) {
    ASSERT_EQ(read->size(), 2u);
    EXPECT_EQ((*read)[0].meta.timestamp, seconds(1));
    EXPECT_EQ((*read)[0].raw, Bytes{0x01});
    EXPECT_EQ((*read)[1].meta.timestamp, seconds(2));
    EXPECT_EQ((*read)[1].raw, Bytes{0x02});
  }
}

TEST(Pcap, UnknownMediumByteEndsTheReadAndKeepsThePrefix) {
  trace::Trace original;
  for (std::uint8_t i = 0; i < 3; ++i) {
    original.push_back(makePacket(net::Medium::kWifi, 1 + i, {i}));
  }
  Bytes file = trace::serializePcap(original, net::kDltKalisMixed);
  // 24-byte file header, then per record a 16-byte record header, the
  // 25-byte pseudo-header (medium byte first) and one frame byte.
  const std::size_t secondMedium = 24 + (16 + 25 + 1) + 16;
  ASSERT_EQ(file[secondMedium], static_cast<std::uint8_t>(net::Medium::kWifi));
  file[secondMedium] = 3;  // one past kBluetooth
  const auto read = trace::readPcap(BytesView(file));
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->truncated);
  ASSERT_EQ(read->packets.size(), 1u);
  EXPECT_EQ(read->packets[0].raw, Bytes{0x00});
}

// --- file I/O ---------------------------------------------------------------------

TEST(Pcap, FileRoundTripAndMissingFile) {
  trace::Trace original;
  for (int i = 0; i < 5; ++i) {
    original.push_back(makePacket(net::Medium::kBluetooth, 10 + i,
                                  {static_cast<std::uint8_t>(i)}));
  }
  const std::string path = tempPath("kalis_pcap_file_test.pcap");
  trace::PcapWriter writer(net::kDltKalisMixed);
  for (const auto& pkt : original) writer.append(pkt);
  ASSERT_TRUE(writer.writeFile(path));

  const auto read = trace::readPcapFile(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->dlt, net::kDltKalisMixed);
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(read->packets.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(read->packets[i].raw, original[i].raw);
    EXPECT_EQ(read->packets[i].meta.timestamp, original[i].meta.timestamp);
  }

  EXPECT_FALSE(trace::readPcapFile("/nonexistent/kalis.pcap").has_value());
}

// --- dump → reload → replay -------------------------------------------------------

TEST(Pcap, DumpReloadReplaysByteIdentically) {
  const trace::Trace trace = recorded::recordShortIcmpFlood(21).packets;
  const std::vector<std::string> expected =
      test::replaySiemLines(trace, 7, seconds(30));
  ASSERT_GT(expected.size(), 0u) << "attack trace raised no alerts";

  // Dump → reload through the mixed-mode pcap format, then replay the
  // reloaded packets through an identical fresh engine: the SIEM stream
  // must not change by a single byte (the --dump-pcap/--pcap contract).
  const Bytes file = trace::serializePcap(trace, net::kDltKalisMixed);
  const auto read = trace::readPcap(BytesView(file));
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(read->packets.size(), trace.size());
  EXPECT_EQ(test::replaySiemLines(read->packets, 7, seconds(30)), expected);
}

}  // namespace
}  // namespace kalis
