// Data Store and KTRC trace-format tests: the sliding packet window, the
// disk log round trip, corruption handling and merge-based symptom
// splicing.
#include <gtest/gtest.h>

#include <cstdio>

#include "kalis/data_store.hpp"
#include "support.hpp"
#include "trace/trace_file.hpp"

namespace kalis {
namespace {

using ids::DataStore;

net::CapturedPacket packetAt(SimTime t, std::uint8_t tag) {
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{tag};
  frame.payload = {tag, tag, tag};
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kIeee802154;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  pkt.meta.rssiDbm = -60.5;
  pkt.meta.channel = 11;
  return pkt;
}

using test::tempPath;

// --- trace format -----------------------------------------------------------------

TEST(TraceFile, SerializeReadRoundTrip) {
  trace::Trace original;
  for (int i = 0; i < 10; ++i) {
    original.push_back(packetAt(seconds(i), static_cast<std::uint8_t>(i)));
  }
  const Bytes bytes = trace::serializeTrace(original);
  const auto result = trace::readTrace(BytesView(bytes));
  EXPECT_FALSE(result.truncated);
  ASSERT_EQ(result.packets.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.packets[i].raw, original[i].raw);
    EXPECT_EQ(result.packets[i].meta.timestamp, original[i].meta.timestamp);
    EXPECT_EQ(result.packets[i].meta.channel, 11);
    EXPECT_NEAR(result.packets[i].meta.rssiDbm, -60.5, 0.1);
  }
}

TEST(TraceFile, BadMagicRejected) {
  Bytes garbage = bytesOf("NOPE....");
  const auto result = trace::readTrace(BytesView(garbage));
  EXPECT_TRUE(result.truncated);
  EXPECT_TRUE(result.packets.empty());
}

TEST(TraceFile, CorruptRecordStopsButKeepsPrefix) {
  trace::Trace original;
  for (int i = 0; i < 5; ++i) {
    original.push_back(packetAt(seconds(i), static_cast<std::uint8_t>(i)));
  }
  Bytes bytes = trace::serializeTrace(original);
  bytes[bytes.size() - 10] ^= 0xff;  // corrupt the last record
  const auto result = trace::readTrace(BytesView(bytes));
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.packets.size(), 4u);
}

TEST(TraceFile, TruncatedTailDetected) {
  trace::Trace original = {packetAt(seconds(1), 1)};
  Bytes bytes = trace::serializeTrace(original);
  bytes.resize(bytes.size() - 3);
  const auto result = trace::readTrace(BytesView(bytes));
  EXPECT_TRUE(result.truncated);
  EXPECT_TRUE(result.packets.empty());
}

TEST(TraceFile, FileRoundTrip) {
  const std::string path = tempPath("kalis_trace_test.ktrc");
  trace::TraceWriter writer;
  writer.append(packetAt(seconds(1), 1));
  writer.append(packetAt(seconds(2), 2));
  ASSERT_TRUE(writer.writeFile(path));
  const auto result = trace::readTraceFile(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->truncated);
  EXPECT_EQ(result->packets.size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceFile, ReadMissingFile) {
  EXPECT_EQ(trace::readTraceFile("/no/such/file.ktrc"), std::nullopt);
}

TEST(TraceFile, MergeSplicesByTimestamp) {
  // The evaluation methodology: benign trace + attack symptoms.
  trace::Trace benign = {packetAt(seconds(1), 1), packetAt(seconds(3), 3)};
  trace::Trace attack = {packetAt(seconds(2), 2), packetAt(seconds(4), 4)};
  const trace::Trace merged = trace::mergeTraces(benign, attack);
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].meta.timestamp, merged[i].meta.timestamp);
  }
}

// --- DataStore -------------------------------------------------------------------------

TEST(DataStore, WindowKeepsOnlyRecent) {
  DataStore::Config config;
  config.windowCapacity = 3;
  DataStore store(config);
  for (int i = 0; i < 10; ++i) {
    store.onPacket(packetAt(seconds(i), static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(store.totalPackets(), 10u);
  EXPECT_EQ(store.window().size(), 3u);
  EXPECT_EQ(store.window().newest().meta.timestamp, seconds(9));
}

TEST(DataStore, DiskLogRoundTrip) {
  const std::string path = tempPath("kalis_datastore_test.ktrc");
  {
    DataStore::Config config;
    config.logToDisk = true;
    config.logPath = path;
    DataStore store(config);
    store.onPacket(packetAt(seconds(1), 1));
    store.onPacket(packetAt(seconds(2), 2));
    EXPECT_TRUE(store.flush());
  }
  const auto loaded = DataStore::loadLog(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST(DataStore, DestructorFlushesDirtyLog) {
  const std::string path = tempPath("kalis_datastore_dtor.ktrc");
  {
    DataStore::Config config;
    config.logToDisk = true;
    config.logPath = path;
    DataStore store(config);
    store.onPacket(packetAt(seconds(1), 1));
    // no explicit flush
  }
  const auto loaded = DataStore::loadLog(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  std::remove(path.c_str());
}

TEST(DataStore, MemoryAccountingTracksWindow) {
  DataStore::Config config;
  config.windowCapacity = 100;
  DataStore store(config);
  const std::size_t empty = store.memoryBytes();
  for (int i = 0; i < 50; ++i) store.onPacket(packetAt(seconds(i), 1));
  EXPECT_GT(store.memoryBytes(), empty);
}

TEST(DataStore, FlushWithoutDiskConfigFails) {
  DataStore store;
  EXPECT_FALSE(store.flush());
}

}  // namespace
}  // namespace kalis
