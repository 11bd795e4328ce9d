// Allocation regression tests for the per-packet path (DESIGN.md §10):
// net::dissect never allocates, KalisNode::feed stays (nearly)
// allocation-free in steady state, the periodic module ticks allocate a
// bounded handful each, and net::serialize makes exactly the allocations it
// makes today, on recorded home-flood, 6LoWPAN and ZigBee captures replayed
// the way the benchmark's traced pass does: run the simulator up to the
// packet, dissect it, feed it. The pipeline's rings recycle their items'
// storage (DESIGN.md §7), so a warm PacketRing or KnowledgeInbox moves
// items through without allocating, and a fleet BroadcastLog allocates
// nothing until an entry arrives.
//
// A separate executable from kalis_tests: the global operator new
// replacement below, which counts heap allocations per thread, would switch
// off the sanitizers' new/delete checks for every test in kalis_tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "fleet/hier_exchange.hpp"
#include "kalis/kalis_node.hpp"
#include "net/codec.hpp"
#include "pipeline/knowledge_exchange.hpp"
#include "pipeline/ring_buffer.hpp"
#include "recorded_captures.hpp"
#include "scenarios/scenarios.hpp"

namespace {

thread_local std::uint64_t tAllocations = 0;

void* countedAlloc(std::size_t size) {
  ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++tAllocations;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tAllocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++tAllocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kalis {
namespace {

struct AllocCounts {
  std::uint64_t dissect = 0;      ///< over the whole capture
  std::uint64_t feedLateHalf = 0; ///< over the second half of the capture
  std::size_t lateHalfPackets = 0;
  /// Inside Simulator::runUntil between the second half's packets: the
  /// node's periodic module ticks.
  std::uint64_t advanceLateHalf = 0;
  std::uint64_t lateHalfTicks = 0;
};

/// Replays `rec` into a KalisNode running the standard module library,
/// counting the allocations made inside the simulator advance,
/// net::dissect and KalisNode::feed.
AllocCounts replayCounting(const scenarios::Capture& rec) {
  sim::Simulator simulator(1);
  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.start();  // at sim time 0: ticks fall on every whole tick interval
  const Duration tick = ids::KalisNode::Options{}.tickInterval;
  AllocCounts counts;
  const std::size_t half = rec.packets.size() / 2;
  for (std::size_t i = 0; i < rec.packets.size(); ++i) {
    const net::CapturedPacket& pkt = rec.packets[i];
    std::uint64_t before = tAllocations;
    if (pkt.meta.timestamp > simulator.now()) {
      const SimTime from = simulator.now();
      simulator.runUntil(pkt.meta.timestamp);
      if (i >= half) {
        counts.advanceLateHalf += tAllocations - before;
        counts.lateHalfTicks += simulator.now() / tick - from / tick;
      }
    }
    before = tAllocations;
    const net::Dissection dis = net::dissect(pkt);
    counts.dissect += tAllocations - before;
    before = tAllocations;
    node.feed(pkt, dis);
    if (i >= half) {
      counts.feedLateHalf += tAllocations - before;
      ++counts.lateHalfPackets;
    }
  }
  return counts;
}

TEST(AllocationFree, DissectNeverAllocatesOnHomeFloods) {
  const scenarios::Capture rec = recorded::recordHomeFloods(7);
  ASSERT_GT(rec.packets.size(), 10000u);
  EXPECT_EQ(replayCounting(rec).dissect, 0u);
}

TEST(AllocationFree, DissectNeverAllocatesOnSixlowpanSmurf) {
  const scenarios::Capture rec = scenarios::captureSmurf(7);
  ASSERT_GT(rec.packets.size(), 1000u);
  EXPECT_EQ(replayCounting(rec).dissect, 0u);
}

TEST(AllocationFree, HomeFeedSteadyStateBelowQuarterAllocPerPacket) {
  // The second half starts past the Data Store's 4096-packet window fill,
  // which copies every packet into a new slot until it is full.
  const scenarios::Capture rec = recorded::recordHomeFloods(7);
  const AllocCounts counts = replayCounting(rec);
  ASSERT_GT(counts.lateHalfPackets, 4096u);
  const double perPacket = static_cast<double>(counts.feedLateHalf) /
                           static_cast<double>(counts.lateHalfPackets);
  EXPECT_LT(perPacket, 0.25) << counts.feedLateHalf << " allocations over "
                             << counts.lateHalfPackets << " packets";
}

/// Asserts that the module ticks over the second half of `rec` average
/// fewer than `bound` allocations each.
void expectTickAllocationsBelow(const scenarios::Capture& rec, double bound) {
  const AllocCounts counts = replayCounting(rec);
  ASSERT_GT(counts.lateHalfTicks, 30u);
  const double perTick = static_cast<double>(counts.advanceLateHalf) /
                         static_cast<double>(counts.lateHalfTicks);
  EXPECT_LT(perTick, bound) << counts.advanceLateHalf << " allocations over "
                            << counts.lateHalfTicks << " ticks";
}

// A tick publishes only the traffic rates that changed, decides the flood
// modules' "enough distinct sources?" without building a set, reads local
// knowledge without building its key, and re-examines every identity's RSSI
// window without allocating; what a tick still allocates is listed in
// DESIGN.md §10 ("Tick path").
TEST(AllocationFree, HomeFloodsTickBelowSevenAllocations) {
  expectTickAllocationsBelow(recorded::recordHomeFloods(7), 7.0);
}

TEST(AllocationFree, SmurfTickBelowFourAndAHalfAllocations) {
  expectTickAllocationsBelow(scenarios::captureSmurf(7), 4.5);
}

TEST(AllocationFree, ReplicationTickBelowEightAllocations) {
  expectTickAllocationsBelow(scenarios::captureReplication(7), 8.0);
}

/// Allocations made inside net::serialize over every packet of `rec`.
std::uint64_t serializeAllocations(const scenarios::Capture& rec) {
  std::uint64_t total = 0;
  for (const net::CapturedPacket& pkt : rec.packets) {
    const net::Dissection dis = net::dissect(pkt);
    const std::uint64_t before = tAllocations;
    const Bytes wire = net::serialize(dis);
    total += tAllocations - before;
  }
  return total;
}

// The serializer's allocations are a property of its code alone, so they are
// pinned exactly: an extra copy anywhere in net::serialize changes a count.
TEST(AllocationCount, SerializeOnHomeFloods) {
  const scenarios::Capture rec = recorded::recordHomeFloods(7);
  ASSERT_EQ(rec.packets.size(), 16794u);
  EXPECT_EQ(serializeAllocations(rec), 362766u);
}

TEST(AllocationCount, SerializeOnSixlowpanSmurf) {
  const scenarios::Capture rec = scenarios::captureSmurf(7);
  ASSERT_EQ(rec.packets.size(), 9616u);
  EXPECT_EQ(serializeAllocations(rec), 190100u);
}

// A ring holds at most capacity + one consumer batch of item buffers. The
// warm-up below fills every one of them with a largest-size frame: the
// first fill, one pop (which sizes the consumer batch and hands its empty
// entries to the popped slots), one batch to refill those slots, then a
// drain. After that, pushing and popping smaller frames reuses the buffers
// and makes no allocation at all; a ring that moved items out would
// allocate once per frame.
TEST(AllocationCount, PacketRingRecyclesFrameBuffersAfterWarmUp) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kLargest = 2048;
  using pipeline::Backpressure;
  pipeline::PacketRing ring(kCapacity);
  net::CapturedPacket largest;
  largest.raw.assign(kLargest, 0xab);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    ring.push(largest, Backpressure::kBlock);
  }
  ring.popBatch(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ring.push(largest, Backpressure::kBlock);
  }
  while (!ring.tryPopBatch(kBatch).empty()) {
  }

  std::vector<net::CapturedPacket> frames(kBatch);
  std::vector<const net::CapturedPacket*> ptrs;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].raw.assign(1 + (i * 397) % kLargest,
                         static_cast<std::uint8_t>(i));
    ptrs.push_back(&frames[i]);
  }
  constexpr std::size_t kCycles = 1000;
  std::size_t popped = 0;
  const std::uint64_t before = tAllocations;
  for (std::size_t c = 0; c < kCycles; ++c) {
    // Pop a little less than is pushed, so the ring fills up and both drop
    // policies fire (a kBlock push would wait forever on one thread).
    if (c % 2 == 0) {
      ring.pushBatch(ptrs.data(), ptrs.size(), Backpressure::kDropOldest);
    } else {
      for (const net::CapturedPacket& f : frames) {
        ring.push(f, Backpressure::kDropNewest);
      }
    }
    popped += ring.popBatch(kBatch - 1).size();
  }
  while (true) {
    const std::size_t n = ring.tryPopBatch(kBatch).size();
    if (n == 0) break;
    popped += n;
  }
  const std::uint64_t allocations = tAllocations - before;
  EXPECT_EQ(allocations, 0u) << "over " << kCycles * kBatch << " frames";
  const pipeline::PacketRing::Stats stats = ring.stats();
  EXPECT_GT(stats.droppedOldest, 0u);
  EXPECT_GT(stats.droppedNewest, 0u);
  EXPECT_EQ(popped + stats.droppedOldest + stats.droppedNewest,
            kCycles * kBatch);
}

// The same for a knowledge inbox: once every slot and the drain batch hold
// knowggets with the longest strings, delivering and draining shorter ones
// allocates nothing.
TEST(AllocationCount, KnowledgeInboxRecyclesStringsAfterWarmUp) {
  constexpr std::size_t kCapacity = 128;
  constexpr std::size_t kBatch = pipeline::KnowledgeInbox::kDrainBatch;
  pipeline::KnowledgeInbox inbox(kCapacity);
  const auto knowgget = [](std::size_t len, char c) {
    pipeline::RemoteKnowgget rk;
    rk.knowgget.label.assign(len, c);
    rk.knowgget.value.assign(len, c);
    rk.knowgget.creator.assign(len, c);
    rk.knowgget.entity.assign(len, c);
    return rk;
  };
  std::size_t seen = 0;
  const auto count = [&seen](const pipeline::RemoteKnowgget&) { ++seen; };
  const pipeline::RemoteKnowgget largest = knowgget(96, 'x');
  for (std::size_t i = 0; i < kCapacity; ++i) inbox.deliver(largest);
  inbox.drain(count);
  for (std::size_t i = 0; i < kBatch; ++i) inbox.deliver(largest);
  inbox.drain(count);

  std::vector<pipeline::RemoteKnowgget> items;
  for (std::size_t i = 0; i < kBatch; ++i) {
    items.push_back(knowgget(16 + i, static_cast<char>('a' + i % 26)));
  }
  // One std::function for every drain: it is built before the count.
  const std::function<void(const pipeline::RemoteKnowgget&)> fn = count;
  constexpr std::size_t kCycles = 500;
  seen = 0;
  const std::uint64_t before = tAllocations;
  for (std::size_t c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < 1 + c % kBatch; ++i) inbox.deliver(items[i]);
    inbox.drain(fn);
  }
  EXPECT_EQ(tAllocations - before, 0u) << "over " << seen << " knowggets";
  EXPECT_GT(seen, kCycles);
}

// A fleet region log grows to its capacity as entries arrive (DESIGN.md
// §11), so the logs of regions nothing was published in cost no heap.
TEST(AllocationCount, FleetBroadcastLogReservesNothingUpFront) {
  const std::uint64_t before = tAllocations;
  const fleet::BroadcastLog log(1024);
  EXPECT_EQ(tAllocations - before, 0u);
  EXPECT_EQ(log.capacity(), 1024u);
}

}  // namespace
}  // namespace kalis
