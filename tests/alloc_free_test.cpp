// Allocation regression tests for the per-packet path (DESIGN.md §10):
// net::dissect never allocates, and KalisNode::feed stays (nearly)
// allocation-free in steady state, on recorded home-flood and 6LoWPAN captures
// replayed the way the benchmark's traced pass does: run the simulator up to
// the packet, dissect it, feed it.
//
// A separate executable from kalis_tests: the global operator new
// replacement below, which counts heap allocations per thread, would switch
// off the sanitizers' new/delete checks for every test in kalis_tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "kalis/kalis_node.hpp"
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
};

/// Replays `rec` into a KalisNode running the standard module library,
/// counting the allocations made inside net::dissect and KalisNode::feed.
AllocCounts replayCounting(const scenarios::Capture& rec) {
  sim::Simulator simulator(1);
  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.start();
  AllocCounts counts;
  const std::size_t half = rec.packets.size() / 2;
  for (std::size_t i = 0; i < rec.packets.size(); ++i) {
    const net::CapturedPacket& pkt = rec.packets[i];
    if (pkt.meta.timestamp > simulator.now()) {
      simulator.runUntil(pkt.meta.timestamp);
    }
    std::uint64_t before = tAllocations;
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

}  // namespace
}  // namespace kalis
