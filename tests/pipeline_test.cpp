// kalis::pipeline tests: ring-buffer backpressure policies (fired and
// counted), shard-key/linkSource agreement, per-source shard affinity and
// ordering, timestamp-ordered alert merging, drain-on-shutdown losslessness,
// and bit-exact equivalence of a one-worker pipeline with the direct
// KalisNode::replayFeed path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <thread>

#include "kalis/siem_export.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/ring_buffer.hpp"
#include "pipeline/shard_key.hpp"
#include "recorded_captures.hpp"
#include "scenarios/scenarios.hpp"
#include "support.hpp"
#include "trace/trace_file.hpp"

namespace kalis {
namespace {

using pipeline::Backpressure;
using pipeline::PacketRing;
using pipeline::Pipeline;
using test::mac;
using test::wifiFrom;

net::CapturedPacket wpanFrom(std::uint16_t src, SimTime ts) {
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{src};
  frame.dst = net::Mac16{0x0001};
  frame.payload = {0xaa, 0xbb};
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kIeee802154;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = ts;
  return pkt;
}

net::CapturedPacket bleFrom(std::uint8_t tag, SimTime ts) {
  net::BleAdvPdu adv;
  adv.type = net::BlePduType::kAdvInd;
  adv.advAddr = mac(tag);
  adv.advData = {0x11, 0x22};
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kBluetooth;
  pkt.raw = adv.encode();
  pkt.meta.timestamp = ts;
  return pkt;
}

/// Engine that records (captureSeq, shard) pairs into a shared collector
/// and optionally dawdles per packet to force queue buildup.
struct Recording {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::size_t>> seen;  // (tag, shard)
};

class RecordingEngine : public pipeline::PacketEngine {
 public:
  RecordingEngine(Recording& rec, std::size_t shard,
                  std::chrono::microseconds delay = {})
      : rec_(rec), shard_(shard), delay_(delay) {}

  void onPacket(const net::CapturedPacket& pkt) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    {
      std::lock_guard<std::mutex> lock(rec_.mu);
      rec_.seen.emplace_back(pkt.meta.captureSeq, shard_);
    }
    watermark_ = pkt.meta.timestamp;
  }
  std::vector<ids::Alert> takeAlerts() override { return {}; }
  SimTime watermark() const override { return watermark_; }

 private:
  Recording& rec_;
  std::size_t shard_;
  std::chrono::microseconds delay_;
  SimTime watermark_ = 0;
};

/// Engine that raises one alert per packet, stamped with the capture time.
class AlertPerPacketEngine : public pipeline::PacketEngine {
 public:
  explicit AlertPerPacketEngine(std::size_t shard) : shard_(shard) {}

  void onPacket(const net::CapturedPacket& pkt) override {
    ids::Alert alert;
    alert.type = ids::AttackType::kUnknownAnomaly;
    alert.time = pkt.meta.timestamp;
    alert.moduleName = "shard" + std::to_string(shard_);
    alert.detail = std::to_string(pkt.meta.captureSeq);
    fresh_.push_back(alert);
    watermark_ = pkt.meta.timestamp;
  }
  std::vector<ids::Alert> takeAlerts() override {
    return std::exchange(fresh_, {});
  }
  SimTime watermark() const override { return watermark_; }

 private:
  std::size_t shard_;
  std::vector<ids::Alert> fresh_;
  SimTime watermark_ = 0;
};

// --- ring buffer ------------------------------------------------------------------

/// Appends copies of one popped batch to `out` (a pop's span is valid only
/// until the ring's next pop) and returns the batch size.
std::size_t keep(std::vector<PacketRing::Item>& out,
                 std::span<const PacketRing::Item> batch) {
  out.insert(out.end(), batch.begin(), batch.end());
  return batch.size();
}

/// A frame of `len` bytes tagged `seq`, every byte drawn from `seq`: a
/// recycled ring buffer that kept a stale tail or took a short copy shows
/// in a byte compare with patternedFrame(seq, len).
net::CapturedPacket patternedFrame(std::uint64_t seq, std::size_t len) {
  net::CapturedPacket pkt;
  pkt.raw.resize(len);
  std::uint64_t x = seq * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t i = 0; i < len; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    pkt.raw[i] = static_cast<std::uint8_t>(x);
  }
  pkt.meta.captureSeq = seq;
  return pkt;
}

TEST(PipelineRing, FifoBatchDequeue) {
  PacketRing ring(8);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.push(wifiFrom(1, seconds(i), i), Backpressure::kBlock),
              PacketRing::PushResult::kOk);
  }
  std::vector<PacketRing::Item> out;
  EXPECT_EQ(keep(out, ring.popBatch(3)), 3u);
  EXPECT_EQ(keep(out, ring.popBatch(100)), 2u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].value.meta.captureSeq, i);
  }
  const PacketRing::Stats stats = ring.stats();
  EXPECT_EQ(stats.pushed, 5u);
  EXPECT_EQ(stats.popped, 5u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(PipelineRing, DropNewestRejectsIncoming) {
  PacketRing ring(4);
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (ring.push(wifiFrom(1, seconds(1), i), Backpressure::kDropNewest) !=
        PacketRing::PushResult::kDroppedNewest) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(ring.stats().droppedNewest, 6u);
  std::vector<PacketRing::Item> out;
  keep(out, ring.popBatch(100));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].value.meta.captureSeq, 0u);  // oldest survived
  EXPECT_EQ(out[3].value.meta.captureSeq, 3u);
}

TEST(PipelineRing, DropOldestEvictsQueued) {
  PacketRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto r = ring.push(wifiFrom(1, seconds(1), i), Backpressure::kDropOldest);
    EXPECT_NE(r, PacketRing::PushResult::kDroppedNewest);
  }
  EXPECT_EQ(ring.stats().droppedOldest, 6u);
  EXPECT_EQ(ring.stats().pushed, 10u);
  std::vector<PacketRing::Item> out;
  keep(out, ring.popBatch(100));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].value.meta.captureSeq, 6u);  // newest survived
  EXPECT_EQ(out[3].value.meta.captureSeq, 9u);
}

TEST(PipelineRing, CloseRejectsPushAndDrains) {
  PacketRing ring(4);
  ring.push(wifiFrom(1, seconds(1), 7), Backpressure::kBlock);
  ring.close();
  EXPECT_EQ(ring.push(wifiFrom(1, seconds(2), 8), Backpressure::kBlock),
            PacketRing::PushResult::kClosed);
  std::vector<PacketRing::Item> out;
  EXPECT_EQ(keep(out, ring.popBatch(100)), 1u);  // drain-on-shutdown
  EXPECT_EQ(out[0].value.meta.captureSeq, 7u);
  EXPECT_EQ(keep(out, ring.popBatch(100)), 0u);  // closed and empty
}

// --- batched push -----------------------------------------------------------------

TEST(PipelineRing, BatchPushExactLossTalliesPerPolicy) {
  // One pushBatch of 10 into a 4-slot ring, per policy. The tallies must be
  // exactly what ten single pushes would have produced.
  const auto batchOf10 = [](PacketRing& ring, Backpressure policy) {
    std::vector<net::CapturedPacket> pkts;
    std::vector<const net::CapturedPacket*> ptrs;
    for (std::uint64_t i = 0; i < 10; ++i) {
      pkts.push_back(wifiFrom(1, seconds(1), i));
    }
    for (const auto& p : pkts) ptrs.push_back(&p);
    return ring.pushBatch(ptrs.data(), ptrs.size(), policy);
  };

  {
    PacketRing ring(4);
    const auto r = batchOf10(ring, Backpressure::kDropNewest);
    EXPECT_EQ(r.accepted, 4u);
    EXPECT_EQ(r.droppedNewest, 6u);
    EXPECT_EQ(r.droppedOldest, 0u);
    EXPECT_EQ(ring.stats().droppedNewest, 6u);
    std::vector<PacketRing::Item> out;
    keep(out, ring.popBatch(100));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front().value.meta.captureSeq, 0u);  // oldest survived
    EXPECT_EQ(out.back().value.meta.captureSeq, 3u);
  }
  {
    PacketRing ring(4);
    const auto r = batchOf10(ring, Backpressure::kDropOldest);
    EXPECT_EQ(r.accepted, 10u);
    EXPECT_EQ(r.droppedOldest, 6u);  // earlier batch items evicted in order
    EXPECT_EQ(ring.stats().droppedOldest, 6u);
    EXPECT_EQ(ring.stats().pushed, 10u);
    std::vector<PacketRing::Item> out;
    keep(out, ring.popBatch(100));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front().value.meta.captureSeq, 6u);  // newest survived
    EXPECT_EQ(out.back().value.meta.captureSeq, 9u);
  }
  {
    PacketRing ring(4);
    ring.close();
    const auto r = batchOf10(ring, Backpressure::kBlock);
    EXPECT_EQ(r.accepted, 0u);
    EXPECT_EQ(r.rejectedClosed, 10u);
    EXPECT_EQ(ring.stats().closedPushes, 10u);
  }
}

TEST(PipelineRing, BatchPushMatchesSerialPushExactly) {
  // Scripted random push/pop sequence replayed against two rings — one via
  // pushBatch, one via single push calls — must leave identical contents,
  // identical counters and identical per-call tallies.
  for (const Backpressure policy :
       {Backpressure::kBlock, Backpressure::kDropNewest,
        Backpressure::kDropOldest}) {
    constexpr std::size_t kCap = 8;
    PacketRing batched(kCap);
    PacketRing serial(kCap);
    std::mt19937 rng(99);
    std::vector<PacketRing::Item> outB;
    std::vector<PacketRing::Item> outS;
    std::uint64_t seq = 0;
    PacketRing::BatchPushResult totB;
    PacketRing::BatchPushResult totS;

    const auto drain = [&](std::size_t k) {
      EXPECT_EQ(keep(outB, batched.tryPopBatch(k)),
                keep(outS, serial.tryPopBatch(k)));
    };

    for (int round = 0; round < 300; ++round) {
      const std::size_t n = rng() % 6;
      if (policy == Backpressure::kBlock) {
        // No consumer thread here: keep enough headroom that kBlock never
        // actually parks (the blocking path has its own threaded test).
        while (serial.size() + n > kCap) drain(2);
      }
      std::vector<net::CapturedPacket> pkts;
      std::vector<const net::CapturedPacket*> ptrs;
      for (std::size_t i = 0; i < n; ++i) {
        pkts.push_back(wifiFrom(1, seconds(1), seq + i));
      }
      for (const auto& p : pkts) ptrs.push_back(&p);
      const auto rb = batched.pushBatch(ptrs.data(), n, policy);
      totB.accepted += rb.accepted;
      totB.droppedNewest += rb.droppedNewest;
      totB.droppedOldest += rb.droppedOldest;
      for (std::size_t i = 0; i < n; ++i) {
        switch (serial.push(pkts[i], policy)) {
          case PacketRing::PushResult::kOk:
          case PacketRing::PushResult::kOkBlocked:
            ++totS.accepted;
            break;
          case PacketRing::PushResult::kDroppedNewest:
            ++totS.droppedNewest;
            break;
          case PacketRing::PushResult::kDroppedOldest:
            ++totS.accepted;
            ++totS.droppedOldest;
            break;
          case PacketRing::PushResult::kClosed:
            break;
        }
      }
      seq += n;
      if (rng() % 3 == 0) drain(1 + rng() % 4);
    }
    drain(kCap);  // empty both

    EXPECT_EQ(totB.accepted, totS.accepted) << backpressureName(policy);
    EXPECT_EQ(totB.droppedNewest, totS.droppedNewest);
    EXPECT_EQ(totB.droppedOldest, totS.droppedOldest);
    const auto sb = batched.stats();
    const auto ss = serial.stats();
    EXPECT_EQ(sb.pushed, ss.pushed) << backpressureName(policy);
    EXPECT_EQ(sb.droppedNewest, ss.droppedNewest);
    EXPECT_EQ(sb.droppedOldest, ss.droppedOldest);
    EXPECT_EQ(sb.blockedPushes, ss.blockedPushes);
    EXPECT_EQ(sb.popped, ss.popped);
    ASSERT_EQ(outB.size(), outS.size()) << backpressureName(policy);
    for (std::size_t i = 0; i < outB.size(); ++i) {
      EXPECT_EQ(outB[i].value.meta.captureSeq, outS[i].value.meta.captureSeq)
          << backpressureName(policy) << " item " << i;
    }
  }
}

TEST(PipelineRing, MultiProducerBatchedPushKeepsPerSourceFifo) {
  // Four producers pushBatch variable-size chunks of their own tagged
  // streams while one consumer drains. Per-source FIFO must hold, the loss
  // accounting must be exact, and every delivered frame must carry exactly
  // the bytes its producer pushed (frame lengths vary from 3 to ~1.4k
  // bytes, so the ring's recycled buffers are refilled long over short and
  // short over long), under every policy.
  const auto frameLength = [](std::uint64_t seq) -> std::size_t {
    return seq % 3 == 0 ? 1400 + seq % 64 : 3 + seq % 61;
  };
  for (const Backpressure policy :
       {Backpressure::kBlock, Backpressure::kDropNewest,
        Backpressure::kDropOldest}) {
    PacketRing ring(64);
    constexpr std::size_t kProducers = 4;
    constexpr std::uint64_t kPerProducer = 2000;
    std::atomic<std::uint64_t> attempted{0};

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::mt19937 rng(static_cast<std::uint32_t>(p) + 1);
        std::uint64_t i = 0;
        while (i < kPerProducer) {
          const std::uint64_t n =
              std::min<std::uint64_t>(1 + rng() % 7, kPerProducer - i);
          std::vector<net::CapturedPacket> pkts;
          std::vector<const net::CapturedPacket*> ptrs;
          for (std::uint64_t j = 0; j < n; ++j) {
            // captureSeq encodes producer * 10^6 + per-producer sequence.
            const std::uint64_t seq = p * 1000000 + i + j;
            pkts.push_back(patternedFrame(seq, frameLength(seq)));
          }
          for (const auto& pkt : pkts) ptrs.push_back(&pkt);
          const auto r = ring.pushBatch(ptrs.data(), n, policy);
          EXPECT_EQ(r.rejectedClosed, 0u);
          attempted.fetch_add(n, std::memory_order_relaxed);
          i += n;
        }
      });
    }

    std::vector<PacketRing::Item> drained;
    std::thread consumer([&] {
      std::vector<PacketRing::Item> out;
      while (keep(out, ring.popBatch(16)) > 0) {
      }
      drained = std::move(out);
    });
    for (auto& t : producers) t.join();
    ring.close();
    consumer.join();

    EXPECT_EQ(attempted.load(), kProducers * kPerProducer);
    const auto stats = ring.stats();
    // Exact loss accounting: every attempted item is accounted exactly once,
    // and every accepted-and-not-evicted item reached the consumer.
    EXPECT_EQ(stats.pushed + stats.droppedNewest, attempted.load())
        << backpressureName(policy);
    EXPECT_EQ(stats.popped + stats.droppedOldest, stats.pushed);
    EXPECT_EQ(drained.size(), stats.popped);
    if (policy == Backpressure::kBlock) {
      EXPECT_EQ(drained.size(), attempted.load()) << "kBlock lost packets";
    }

    // Per-source FIFO: each producer's surviving subsequence is strictly
    // increasing (drop policies may leave gaps, never reorderings).
    std::map<std::uint64_t, std::uint64_t> lastSeq;
    std::size_t corrupted = 0;
    for (const auto& item : drained) {
      const std::uint64_t tag = item.value.meta.captureSeq;
      if (item.value.raw != patternedFrame(tag, frameLength(tag)).raw) {
        ++corrupted;
      }
      const std::uint64_t producer = item.value.meta.captureSeq / 1000000;
      const std::uint64_t seq = item.value.meta.captureSeq % 1000000;
      auto [it, first] = lastSeq.emplace(producer, seq);
      if (!first) {
        EXPECT_LT(it->second, seq)
            << backpressureName(policy) << " reordered producer " << producer;
        it->second = seq;
      }
    }
    EXPECT_EQ(corrupted, 0u)
        << backpressureName(policy) << ": frames whose bytes differ from "
        << "what their producer pushed";
  }
}

TEST(PipelineRing, RecycledSlotsDeliverExactBytesUnderEveryPolicy) {
  // Frames alternate between ~1.5k and a few bytes through a 4-slot ring,
  // so each buffer the ring recycles last held a frame of the other size.
  // Pushes (single and batched) outrun pops, so the drop policies evict and
  // reject; every frame that comes out must equal the pushed one byte for
  // byte, and every pushed frame must be delivered or counted as lost.
  const auto frameLength = [](std::uint64_t seq) -> std::size_t {
    return seq % 2 == 0 ? 1500 - seq % 17 : 1 + seq % 5;
  };
  for (const Backpressure policy :
       {Backpressure::kBlock, Backpressure::kDropNewest,
        Backpressure::kDropOldest}) {
    constexpr std::size_t kCap = 4;
    PacketRing ring(kCap);
    std::uint64_t seq = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lastDelivered = 0;
    const auto check = [&](std::span<const PacketRing::Item> batch) {
      for (const PacketRing::Item& item : batch) {
        const std::uint64_t tag = item.value.meta.captureSeq;
        EXPECT_EQ(item.value.raw, patternedFrame(tag, frameLength(tag)).raw)
            << backpressureName(policy) << " frame " << tag;
        EXPECT_TRUE(delivered == 0 || tag > lastDelivered)
            << backpressureName(policy) << " reordered frame " << tag;
        lastDelivered = tag;
        ++delivered;
      }
      return batch.size();
    };
    for (int round = 0; round < 400; ++round) {
      std::size_t n = 1 + round % 7;
      // No consumer thread: kBlock may only fill the free slots.
      if (policy == Backpressure::kBlock) n = std::min(n, kCap - ring.size());
      std::vector<net::CapturedPacket> pkts;
      for (std::size_t i = 0; i < n; ++i, ++seq) {
        pkts.push_back(patternedFrame(seq, frameLength(seq)));
      }
      if (round % 2 == 0) {
        std::vector<const net::CapturedPacket*> ptrs;
        for (const auto& p : pkts) ptrs.push_back(&p);
        ring.pushBatch(ptrs.data(), ptrs.size(), policy);
      } else {
        for (const auto& p : pkts) ring.push(p, policy);
      }
      check(round % 3 == 0 ? ring.popBatch(1 + round % 4)
                           : ring.tryPopBatch(1 + round % 4));
    }
    while (check(ring.tryPopBatch(kCap)) > 0) {
    }

    const auto stats = ring.stats();
    EXPECT_EQ(delivered, stats.popped) << backpressureName(policy);
    EXPECT_EQ(delivered + stats.droppedNewest + stats.droppedOldest, seq)
        << backpressureName(policy);
    if (policy == Backpressure::kBlock) {
      EXPECT_EQ(delivered, seq);
    } else if (policy == Backpressure::kDropNewest) {
      EXPECT_GT(stats.droppedNewest, 0u);
    } else {
      EXPECT_GT(stats.droppedOldest, 0u);
    }
  }
}

// --- shard keys -------------------------------------------------------------------

TEST(PipelineShardKey, AgreesWithDissectionLinkSource) {
  std::vector<net::CapturedPacket> pkts;
  for (std::uint8_t tag : {1, 2, 3, 9}) pkts.push_back(wifiFrom(tag, seconds(1)));
  // AP -> station direction (fromDs): source is addr3.
  {
    net::WifiFrame frame;
    frame.kind = net::WifiFrameKind::kData;
    frame.fromDs = true;
    frame.src = mac(0x30);
    frame.dst = mac(2);
    frame.bssid = mac(0xfe);
    frame.body = {0x00};
    net::CapturedPacket pkt;
    pkt.medium = net::Medium::kWifi;
    pkt.raw = frame.encode();
    pkts.push_back(pkt);
  }
  // Management frame (beacon).
  {
    net::WifiFrame beacon;
    beacon.kind = net::WifiFrameKind::kBeacon;
    beacon.src = mac(0xfe);
    beacon.dst = net::Mac48::broadcast();
    beacon.bssid = mac(0xfe);
    beacon.body = net::beaconBody("lab");
    net::CapturedPacket pkt;
    pkt.medium = net::Medium::kWifi;
    pkt.raw = beacon.encode();
    pkts.push_back(pkt);
  }
  for (std::uint16_t src : {0x0002, 0x0007}) pkts.push_back(wpanFrom(src, seconds(1)));
  for (std::uint8_t tag : {0x41, 0x42}) pkts.push_back(bleFrom(tag, seconds(1)));

  // The peeked source must be the exact same identity the full dissector
  // reports, and the shard key must be its EntityRef::key() — not merely
  // consistent, but byte-for-byte the same routing identity.
  std::map<std::string, std::uint64_t> keyBySource;
  for (const auto& pkt : pkts) {
    const net::EntityRef dissected = net::dissect(pkt).linkSourceRef();
    ASSERT_TRUE(dissected.valid());
    const net::EntityRef peeked = pipeline::peekLinkSource(pkt);
    EXPECT_EQ(peeked, dissected) << "peeked " << peeked.toString()
                                 << " != dissected " << dissected.toString();
    const std::uint64_t key = pipeline::sourceShardKey(pkt);
    EXPECT_EQ(key, dissected.key());
    auto [it, inserted] = keyBySource.emplace(dissected.toString(), key);
    EXPECT_EQ(it->second, key) << "source " << it->first;
  }
  // Distinct sources should not all collapse onto one key.
  std::set<std::uint64_t> distinct;
  for (const auto& [src, key] : keyBySource) distinct.insert(key);
  EXPECT_GT(distinct.size(), keyBySource.size() / 2);

  // Garbage frames have no peekable source but still route deterministically.
  net::CapturedPacket garbage;
  garbage.medium = net::Medium::kWifi;
  garbage.raw = {0x01, 0x02, 0x03};
  EXPECT_FALSE(pipeline::peekLinkSource(garbage).valid());
  EXPECT_EQ(pipeline::sourceShardKey(garbage),
            pipeline::sourceShardKey(garbage));
}

// --- backpressure through the pipeline --------------------------------------------

TEST(PipelineBackpressure, DropNewestFiresAndIsCounted) {
  pipeline::Options opts;
  opts.workers = 1;
  opts.queueCapacity = 8;
  opts.policy = Backpressure::kDropNewest;
  Recording rec;
  Pipeline pipe(opts, [&rec](std::size_t shard) {
    return std::make_unique<RecordingEngine>(rec, shard);
  });
  // Before start() nothing consumes, so exactly capacity packets fit.
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    if (pipe.enqueue(wifiFrom(1, seconds(1) + i, i))) ++accepted;
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(pipe.stats().droppedNewest, 4u);
  pipe.start();
  pipe.stop();
  EXPECT_EQ(pipe.stats().processed, 8u);
  ASSERT_EQ(rec.seen.size(), 8u);
  EXPECT_EQ(rec.seen.front().first, 0u);

  obs::Registry reg;
  pipe.collectMetrics(reg, "pipeline");
  EXPECT_EQ(reg.counterValue("pipeline.dropped_newest"), 4u);
  EXPECT_EQ(reg.counterValue("pipeline.processed"), 8u);
}

TEST(PipelineBackpressure, DropOldestKeepsNewestAndIsCounted) {
  pipeline::Options opts;
  opts.workers = 1;
  opts.queueCapacity = 8;
  opts.policy = Backpressure::kDropOldest;
  Recording rec;
  Pipeline pipe(opts, [&rec](std::size_t shard) {
    return std::make_unique<RecordingEngine>(rec, shard);
  });
  for (std::uint64_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(pipe.enqueue(wifiFrom(1, seconds(1) + i, i)));
  }
  EXPECT_EQ(pipe.stats().droppedOldest, 4u);
  pipe.start();
  pipe.stop();
  ASSERT_EQ(rec.seen.size(), 8u);
  EXPECT_EQ(rec.seen.front().first, 4u);  // tags 0..3 were evicted
  EXPECT_EQ(rec.seen.back().first, 11u);
}

TEST(PipelineBackpressure, BlockPolicyIsLossless) {
  pipeline::Options opts;
  opts.workers = 1;
  opts.queueCapacity = 4;
  opts.maxBatch = 2;
  opts.policy = Backpressure::kBlock;
  Recording rec;
  Pipeline pipe(opts, [&rec](std::size_t shard) {
    return std::make_unique<RecordingEngine>(rec, shard,
                                             std::chrono::microseconds(200));
  });
  pipe.start();
  const std::uint64_t kPackets = 64;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    EXPECT_TRUE(pipe.enqueue(wifiFrom(1, seconds(1) + i, i)));
  }
  pipe.stop();
  EXPECT_EQ(pipe.stats().processed, kPackets);
  EXPECT_EQ(pipe.stats().dropped(), 0u);
  ASSERT_EQ(rec.seen.size(), kPackets);
  // FIFO preserved under blocking.
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(rec.seen[i].first, i);
  }
}

// --- shard affinity ---------------------------------------------------------------

TEST(PipelineShardAffinity, SourcesStickToOneShardInOrder) {
  pipeline::Options opts;
  opts.workers = 4;
  opts.queueCapacity = 256;
  Recording rec;
  Pipeline pipe(opts, [&rec](std::size_t shard) {
    return std::make_unique<RecordingEngine>(rec, shard);
  });
  pipe.start();
  // 8 sources, 40 packets each, interleaved. captureSeq encodes
  // source * 1000 + per-source sequence number.
  const std::size_t kSources = 8;
  const std::uint64_t kPerSource = 40;
  for (std::uint64_t i = 0; i < kPerSource; ++i) {
    for (std::size_t s = 0; s < kSources; ++s) {
      const auto tag = static_cast<std::uint8_t>(s + 1);
      ASSERT_TRUE(pipe.enqueue(
          wifiFrom(tag, seconds(1) + i, s * 1000 + i)));
    }
  }
  pipe.stop();
  ASSERT_EQ(rec.seen.size(), kSources * kPerSource);

  std::map<std::uint64_t, std::size_t> shardOfSource;
  std::map<std::uint64_t, std::uint64_t> lastSeq;
  std::set<std::size_t> shardsUsed;
  for (const auto& [tag, shard] : rec.seen) {
    const std::uint64_t source = tag / 1000;
    const std::uint64_t seq = tag % 1000;
    auto [it, inserted] = shardOfSource.emplace(source, shard);
    EXPECT_EQ(it->second, shard) << "source " << source << " hopped shards";
    auto [sit, first] = lastSeq.emplace(source, seq);
    if (!first) {
      EXPECT_LT(sit->second, seq) << "source " << source << " reordered";
      sit->second = seq;
    }
    shardsUsed.insert(shard);
  }
  EXPECT_EQ(shardOfSource.size(), kSources);
  EXPECT_GT(shardsUsed.size(), 1u) << "hash sent every source to one shard";
}

// --- ordered alert merge ----------------------------------------------------------

TEST(PipelineMergeOrder, AlertsEmitInTimestampOrder) {
  pipeline::Options opts;
  opts.workers = 4;
  opts.queueCapacity = 512;
  std::vector<ids::Alert> sunk;
  std::mutex sunkMu;
  Pipeline pipe(opts, [](std::size_t shard) {
    return std::make_unique<AlertPerPacketEngine>(shard);
  });
  pipe.setAlertSink([&](const ids::Alert& a) {
    std::lock_guard<std::mutex> lock(sunkMu);
    sunk.push_back(a);
  });
  pipe.start();
  const std::size_t kSources = 8;
  const std::uint64_t kPerSource = 50;
  for (std::uint64_t i = 0; i < kPerSource; ++i) {
    for (std::size_t s = 0; s < kSources; ++s) {
      ASSERT_TRUE(pipe.enqueue(wifiFrom(static_cast<std::uint8_t>(s + 1),
                                        seconds(1) + i * 1000, i)));
    }
  }
  pipe.stop();
  ASSERT_EQ(sunk.size(), kSources * kPerSource);
  for (std::size_t i = 1; i < sunk.size(); ++i) {
    EXPECT_LE(sunk[i - 1].time, sunk[i].time) << "merge emitted out of order";
  }
  // The merged record matches the sink stream.
  ASSERT_EQ(pipe.alerts().size(), sunk.size());
  for (std::size_t i = 0; i < sunk.size(); ++i) {
    EXPECT_EQ(pipe.alerts()[i].time, sunk[i].time);
    EXPECT_EQ(pipe.alerts()[i].detail, sunk[i].detail);
  }
}

TEST(PipelineMergeOrder, RunMergeMatchesReferenceHeapOrderSeeds1To21) {
  // The per-shard run merge must emit exactly the (time, shard, seq) total
  // order the original per-alert min-heap produced. Reference: every packet
  // raises one alert at its own timestamp, the producer thread is single so
  // per-shard arrival order is enqueue order, hence the expected stream is
  // the stable sort of (time, shard) over enqueue order. Timestamps include
  // deliberate cross-source ties to exercise the shard tiebreak.
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    std::mt19937 rng(static_cast<std::uint32_t>(seed));
    constexpr std::size_t kPackets = 360;
    std::vector<net::CapturedPacket> trace;
    SimTime t = seconds(1);
    for (std::size_t i = 0; i < kPackets; ++i) {
      if (rng() % 3 != 0) t += milliseconds(1 + rng() % 4);
      trace.push_back(wifiFrom(static_cast<std::uint8_t>(1 + rng() % 12), t,
                               i));
    }

    pipeline::Options opts;
    opts.workers = 4;
    opts.queueCapacity = 1024;
    Pipeline pipe(opts, [](std::size_t shard) {
      return std::make_unique<AlertPerPacketEngine>(shard);
    });
    pipe.start();
    for (const auto& pkt : trace) ASSERT_TRUE(pipe.enqueue(pkt));
    pipe.stop();
    ASSERT_EQ(pipe.alerts().size(), kPackets) << "seed " << seed;

    // Recover each packet's shard from its own alert (detail = captureSeq,
    // moduleName = "shard<N>"), then sort enqueue indices by (time, shard)
    // stably — within a (time, shard) tie enqueue order IS ring seq order.
    std::vector<std::size_t> shardOf(kPackets);
    std::vector<std::string> jsonOf(kPackets);
    for (const ids::Alert& a : pipe.alerts()) {
      const std::size_t i = std::stoul(a.detail);
      ASSERT_LT(i, kPackets);
      shardOf[i] = std::stoul(a.moduleName.substr(5));
      jsonOf[i] = ids::toSiemJson(a);
    }
    std::vector<std::size_t> order(kPackets);
    for (std::size_t i = 0; i < kPackets; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (trace[a].meta.timestamp != trace[b].meta.timestamp)
                         return trace[a].meta.timestamp <
                                trace[b].meta.timestamp;
                       return shardOf[a] < shardOf[b];
                     });
    for (std::size_t i = 0; i < kPackets; ++i) {
      ASSERT_EQ(ids::toSiemJson(pipe.alerts()[i]), jsonOf[order[i]])
          << "seed " << seed << " alert " << i
          << " diverged from the reference heap order";
    }
  }
}

TEST(PipelineMergeOrder, EnqueueBatchMatchesSerialEnqueue) {
  // Feeding the same trace through enqueueBatch must produce the identical
  // merged alert stream as per-packet enqueue — the merge output is
  // deterministic, so the two threaded runs are directly comparable.
  std::mt19937 rng(5);
  std::vector<net::CapturedPacket> trace;
  SimTime t = seconds(1);
  for (std::size_t i = 0; i < 500; ++i) {
    if (rng() % 3 != 0) t += milliseconds(1 + rng() % 4);
    trace.push_back(wifiFrom(static_cast<std::uint8_t>(1 + rng() % 12), t, i));
  }
  const auto runWith = [&](bool batched) {
    pipeline::Options opts;
    opts.workers = 4;
    opts.queueCapacity = 1024;
    Pipeline pipe(opts, [](std::size_t shard) {
      return std::make_unique<AlertPerPacketEngine>(shard);
    });
    pipe.start();
    if (batched) {
      std::size_t i = 0;
      std::mt19937 chunkRng(7);
      while (i < trace.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + chunkRng() % 96, trace.size() - i);
        EXPECT_EQ(pipe.enqueueBatch(trace.data() + i, n), n);
        i += n;
      }
    } else {
      for (const auto& pkt : trace) EXPECT_TRUE(pipe.enqueue(pkt));
    }
    pipe.stop();
    return ids::toSiemLines(pipe.alerts());
  };
  const std::vector<std::string> serial = runWith(false);
  const std::vector<std::string> batched = runWith(true);
  ASSERT_EQ(serial.size(), trace.size());
  EXPECT_EQ(batched, serial);
}

// --- drain on shutdown ------------------------------------------------------------

TEST(PipelineDrain, StopLosesNoEnqueuedPacket) {
  pipeline::Options opts;
  opts.workers = 4;
  opts.queueCapacity = 1024;
  opts.policy = Backpressure::kBlock;
  Recording rec;
  Pipeline pipe(opts, [&rec](std::size_t shard) {
    return std::make_unique<RecordingEngine>(rec, shard);
  });
  pipe.start();
  const std::uint64_t kPackets = 500;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(pipe.enqueue(
        wifiFrom(static_cast<std::uint8_t>(1 + i % 16), seconds(1) + i, i)));
  }
  pipe.stop();  // immediately: queued packets must still be processed
  EXPECT_EQ(pipe.stats().enqueued, kPackets);
  EXPECT_EQ(pipe.stats().processed, kPackets);
  EXPECT_EQ(pipe.stats().dropped(), 0u);
  EXPECT_EQ(rec.seen.size(), kPackets);
}

// --- one worker == direct replayFeed ----------------------------------------------

/// A one-worker Kalis pipeline emits the direct replayFeed SIEM stream byte
/// for byte whatever its batch size and ring capacity: neither batch
/// boundaries nor a producer blocked on a full ring change the output.
TEST(PipelineDeterminism, MatchesDirectReplayFeedByteForByte) {
  const trace::Trace trace = recorded::recordShortIcmpFlood(21).packets;
  ASSERT_GT(trace.size(), 100u);
  const SimTime drainUntil = seconds(30);

  // Synchronous path: one node fed directly.
  const std::vector<std::string> expected =
      test::replaySiemLines(trace, 7, drainUntil);
  ASSERT_FALSE(expected.empty()) << "attack trace raised no alerts";

  for (const std::size_t maxBatch : {1u, 7u, 64u}) {
    for (const std::size_t queueCapacity : {4u, 4096u}) {
      SCOPED_TRACE("maxBatch " + std::to_string(maxBatch) +
                   ", queueCapacity " + std::to_string(queueCapacity));
      pipeline::Options opts;
      opts.workers = 1;
      opts.maxBatch = maxBatch;
      opts.queueCapacity = queueCapacity;
      opts.policy = Backpressure::kBlock;
      Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                              test::fullLibraryEngine(7, drainUntil)));
      pipe.start();
      for (const auto& pkt : trace) ASSERT_TRUE(pipe.enqueue(pkt));
      pipe.stop();

      EXPECT_EQ(ids::toSiemLines(pipe.alerts()), expected);
      EXPECT_EQ(pipe.stats().processed, trace.size());
      EXPECT_EQ(pipe.stats().dropped(), 0u);
    }
  }
}

/// Recorded traffic enters a pipeline through enqueueBatch, whole or in
/// chunks (trace_replay hands it over 1024 packets at a time); either way a
/// one-worker pipeline emits exactly what per-packet enqueue() does.
TEST(PipelineDeterminism, EnqueueBatchWholeAndChunkedMatchPerPacketEnqueue) {
  const scenarios::Capture capture = recorded::recordHomeFloods(7);
  const trace::Trace& trace = capture.packets;
  constexpr std::size_t kChunk = 1024;
  ASSERT_GT(trace.size(), 2 * kChunk);
  // chunk == 0: one enqueue() per packet.
  const auto runWith = [&](std::size_t chunk) {
    pipeline::Options opts;
    opts.workers = 1;
    Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                            test::fullLibraryEngine(7, capture.end)));
    pipe.start();
    if (chunk == 0) {
      for (const auto& pkt : trace) EXPECT_TRUE(pipe.enqueue(pkt));
    } else {
      for (std::size_t i = 0; i < trace.size(); i += chunk) {
        const std::size_t n = std::min(chunk, trace.size() - i);
        EXPECT_EQ(pipe.enqueueBatch(trace.data() + i, n), n);
      }
    }
    pipe.stop();
    EXPECT_EQ(pipe.stats().processed, trace.size());
    return ids::toSiemLines(pipe.alerts());
  };
  const std::vector<std::string> perPacket = runWith(0);
  ASSERT_FALSE(perPacket.empty()) << "attack trace raised no alerts";
  EXPECT_EQ(runWith(trace.size()), perPacket);
  EXPECT_EQ(runWith(kChunk), perPacket);
}

/// Routing, batching and the merge at a fixed shard count, pinned exactly.
/// The whole capture is queued before start(), so each worker finds its ring
/// full and drains it in maxBatch-sized batches: per-shard packets follow
/// the shard key alone, per-shard batches follow the ring, and the merged
/// alert count follows the shard engines and the merge.
TEST(PipelineCounts, HomeFloodsAtFourWorkers) {
  const scenarios::Capture capture = recorded::recordHomeFloods(7);
  const trace::Trace& trace = capture.packets;
  pipeline::Options opts;
  opts.workers = 4;
  opts.queueCapacity = trace.size();
  Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                          test::fullLibraryEngine(7, capture.end)));
  ASSERT_EQ(pipe.enqueueBatch(trace.data(), trace.size()), trace.size());
  pipe.start();
  pipe.stop();

  obs::Registry reg;
  pipe.collectMetrics(reg, "pipeline");
  const std::uint64_t packets[] = {40, 490, 7092, 9172};
  const std::uint64_t batches[] = {1, 8, 111, 144};
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const std::string ring =
        "pipeline.shard." + std::to_string(shard) + ".ring";
    EXPECT_EQ(reg.counterValue(ring + ".popped"), packets[shard]) << ring;
    EXPECT_EQ(reg.counterValue(ring + ".batches"), batches[shard]) << ring;
  }
  EXPECT_EQ(pipe.alerts().size(), 72u);
}

/// Multi-worker mode on the same trace still finds the flood (all flood
/// packets share one link source, so one shard owns the whole attack).
TEST(PipelineDeterminism, ThreadedModeStillDetectsFlood) {
  const trace::Trace trace = recorded::recordShortIcmpFlood(21).packets;
  pipeline::Options opts;
  opts.workers = 4;
  Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                          test::fullLibraryEngine(7, seconds(30))));
  pipe.start();
  for (const auto& pkt : trace) ASSERT_TRUE(pipe.enqueue(pkt));
  pipe.stop();
  EXPECT_EQ(pipe.stats().processed, trace.size());
  EXPECT_EQ(pipe.stats().dropped(), 0u);
  bool floodAlert = false;
  for (const auto& alert : pipe.alerts()) {
    if (alert.type == ids::AttackType::kIcmpFlood) floodAlert = true;
  }
  EXPECT_TRUE(floodAlert);
  for (std::size_t i = 1; i < pipe.alerts().size(); ++i) {
    EXPECT_LE(pipe.alerts()[i - 1].time, pipe.alerts()[i].time);
  }
}

// --- every Fig. 8 capture: pipeline == synchronous Kalis --------------------------

/// Parameterised over the Fig. 8 scenario names (seed 7 captures).
class Fig8Capture : public ::testing::TestWithParam<std::string> {};

/// A one-worker Pipeline with the full library emits exactly the SIEM
/// stream of the synchronous Kalis replay (scenarios::evaluate) of the same
/// capture.
TEST_P(Fig8Capture, PipelineReproducesSynchronousKalis) {
  const std::optional<scenarios::Capture> capture =
      scenarios::capture(GetParam(), 7);
  ASSERT_TRUE(capture.has_value());
  const std::vector<std::string> expected = ids::toSiemLines(
      scenarios::evaluate(scenarios::SystemKind::kKalis, *capture).alerts);
  ASSERT_FALSE(expected.empty());

  pipeline::Options opts;
  opts.workers = 1;
  Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                          test::fullLibraryEngine(1, capture->end)));
  pipe.start();
  for (const auto& pkt : capture->packets) ASSERT_TRUE(pipe.enqueue(pkt));
  pipe.stop();
  EXPECT_EQ(ids::toSiemLines(pipe.alerts()), expected);
}

INSTANTIATE_TEST_SUITE_P(
    PipelineScenario, Fig8Capture,
    ::testing::ValuesIn(scenarios::scenarioNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name;
      for (char c : info.param) {
        if (c != ' ') name += c;
      }
      return name;
    });

}  // namespace
}  // namespace kalis
