// trace::pcap + the unified PacketSource ingestion seam.
//
// Covers: classic-pcap write→read roundtrips (homogeneous DLTs and the
// mixed DLT_USER0 mode with its lossless RxMeta pseudo-header), the shared
// medium↔DLT table, malformed/unsupported inputs, PacketSource draining,
// and the equivalence guarantees the seam promises: KalisNode::consume and
// Pipeline::enqueueFrom reproduce the direct replay-feed paths alert for
// alert — including after a pcap dump/reload cycle.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "net/medium_dlt.hpp"
#include "net/packet_source.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "recorded_captures.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

namespace kalis {
namespace {

std::string tempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

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

// --- file I/O + PacketSource draining ---------------------------------------------

TEST(Pcap, FileTraceSourceDrainsOnceThenStaysEmpty) {
  trace::Trace original;
  for (int i = 0; i < 5; ++i) {
    original.push_back(makePacket(net::Medium::kBluetooth, 10 + i,
                                  {static_cast<std::uint8_t>(i)}));
  }
  const std::string path = tempPath("kalis_pcap_source_test.pcap");
  trace::PcapWriter writer(net::kDltKalisMixed);
  for (const auto& pkt : original) writer.append(pkt);
  ASSERT_TRUE(writer.writeFile(path));

  auto source = trace::openPcapSource(path);
  ASSERT_TRUE(source.has_value());
  EXPECT_EQ(source->remaining(), original.size());
  std::size_t drained = 0;
  while (auto pkt = source->next()) {
    EXPECT_EQ(pkt->raw, original[drained].raw);
    ++drained;
  }
  EXPECT_EQ(drained, original.size());
  EXPECT_EQ(source->remaining(), 0u);
  EXPECT_FALSE(source->next().has_value());  // exhausted stays exhausted
  std::filesystem::remove(path);

  EXPECT_FALSE(trace::openPcapSource("/nonexistent/kalis.pcap").has_value());
}

TEST(Pcap, KtrcSourceDrainsTheSameSeam) {
  trace::Trace original;
  original.push_back(makePacket(net::Medium::kIeee802154, 5, {0x61, 0x88}));
  const std::string path = tempPath("kalis_pcap_ktrc_source_test.ktrc");
  trace::TraceWriter writer;
  for (const auto& pkt : original) writer.append(pkt);
  ASSERT_TRUE(writer.writeFile(path));

  auto source = trace::openKtrcSource(path);
  ASSERT_TRUE(source.has_value());
  auto pkt = source->next();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->raw, original[0].raw);
  EXPECT_FALSE(source->next().has_value());
  std::filesystem::remove(path);
}

// --- ingestion-seam equivalence ---------------------------------------------------

/// The short ICMP-flood capture, cached — three equivalence tests below
/// replay it.
const trace::Trace& attackTrace() {
  static const scenarios::Capture capture = recorded::recordShortIcmpFlood(21);
  return capture.packets;
}

/// Replays a source through a fresh node via consume(); returns SIEM lines.
std::vector<std::string> consumeAlerts(net::PacketSource& source) {
  sim::Simulator sim(7);
  ids::KalisNode node(sim);
  node.useStandardLibrary();
  node.start();
  node.consume(source);
  sim.runUntil(seconds(30));
  std::vector<std::string> lines;
  for (const ids::Alert& a : node.alerts()) lines.push_back(ids::toSiemJson(a));
  return lines;
}

TEST(PacketSourceSeam, ConsumeMatchesDirectReplayFeed) {
  const trace::Trace& trace = attackTrace();
  ASSERT_GT(trace.size(), 100u);

  sim::Simulator directSim(7);
  ids::KalisNode direct(directSim);
  direct.useStandardLibrary();
  direct.start();
  for (const auto& pkt : trace) direct.replayFeed(pkt);
  directSim.runUntil(seconds(30));
  std::vector<std::string> expected;
  for (const ids::Alert& a : direct.alerts()) {
    expected.push_back(ids::toSiemJson(a));
  }
  ASSERT_GT(expected.size(), 0u) << "attack trace raised no alerts";

  net::VectorPacketSource source(trace);
  EXPECT_EQ(consumeAlerts(source), expected);
}

TEST(PacketSourceSeam, PcapDumpReloadReplaysByteIdentically) {
  const trace::Trace& trace = attackTrace();
  net::VectorPacketSource memorySource(trace);
  const std::vector<std::string> expected = consumeAlerts(memorySource);
  ASSERT_GT(expected.size(), 0u);

  // Dump → reload through the mixed-mode pcap format, then replay the
  // reloaded packets through an identical fresh engine: the SIEM stream
  // must not change by a single byte (the --dump-pcap/--pcap contract).
  const Bytes file = trace::serializePcap(trace, net::kDltKalisMixed);
  auto read = trace::readPcap(BytesView(file));
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->packets.size(), trace.size());
  net::VectorPacketSource pcapSource(std::move(read->packets));
  EXPECT_EQ(consumeAlerts(pcapSource), expected);
}

TEST(PacketSourceSeam, PipelineEnqueueFromMatchesPerPacketEnqueue) {
  const trace::Trace& trace = attackTrace();
  const auto runWith = [&](bool viaSource) {
    pipeline::Options opts;
    opts.workers = 1;
    pipeline::KalisEngineOptions engineOpts;
    engineOpts.seedBase = 7;
    engineOpts.drainUntil = seconds(30);
    engineOpts.configure = [](ids::KalisNode& node) {
      node.useStandardLibrary();
    };
    pipeline::Pipeline pipe(opts, pipeline::makeKalisEngineFactory(engineOpts));
    pipe.start();
    if (viaSource) {
      net::VectorPacketSource source(trace);
      EXPECT_EQ(pipe.enqueueFrom(source), trace.size());
    } else {
      for (const auto& pkt : trace) EXPECT_TRUE(pipe.enqueue(pkt));
    }
    pipe.stop();
    std::vector<std::string> lines;
    for (const ids::Alert& a : pipe.alerts()) {
      lines.push_back(ids::toSiemJson(a));
    }
    return lines;
  };
  const std::vector<std::string> perPacket = runWith(false);
  const std::vector<std::string> viaSeam = runWith(true);
  ASSERT_GT(perPacket.size(), 0u);
  EXPECT_EQ(viaSeam, perPacket);
}

}  // namespace
}  // namespace kalis
