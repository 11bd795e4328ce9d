// Bounded multi-producer ring — the queueing primitive of kalis::pipeline.
//
// BoundedRing<T> is a fixed array of `capacity` slots guarded by one mutex
// and two condition variables. The cross-thread hot path is batched at both
// ends:
//
//   producers   pushBatch() inserts a whole run of items under ONE lock
//               acquisition and issues AT MOST ONE notify — and only when a
//               consumer is actually parked (waiter counters elide the futex
//               wake entirely while the consumer keeps up).
//   consumer    popBatch() drains up to maxBatch items per lock; before
//               parking on the condvar it spins briefly (adaptive: the spin
//               budget collapses after a fruitless round and is restored by
//               the next immediate hit), so a steadily-fed ring never pays
//               wake-up latency.
//
// The ring owns its items' storage for its whole life: a pop swaps each
// queued slot with an entry of a ring-owned consumer batch and hands the
// consumer a span over that batch, so the producer's next copy-assign into
// the slot reuses what the consumer finished with. The ring holds at most
// capacity + one batch of item buffers and, once warm, never allocates.
//
// Two instantiations exist:
//
//   PacketRing  = BoundedRing<net::CapturedPacket>   ingress stage: many
//                 producers (sniffer callbacks, trace replay loops) push
//                 captured packets, exactly one worker drains in batches.
//   BoundedRing<RemoteKnowgget>                      per-shard inbox of the
//                 cross-shard KnowledgeExchange (knowledge_exchange.hpp):
//                 every other worker publishes, the owning worker drains at
//                 batch boundaries via tryPopBatch.
//
// When the ring is full the configured backpressure policy decides:
//
//   kBlock       producer waits until the consumer frees a slot (lossless)
//   kDropNewest  the incoming item is rejected
//   kDropOldest  the oldest queued item is evicted to make room
//
// pushBatch applies the policy item by item, so its loss accounting is
// exactly what the same sequence of single pushes would have produced.
//
// Every outcome is counted (always-on uint64 tallies for loss accounting,
// kalis::obs histograms/gauges for depth, queue wait and batch size). All
// counters are updated under the ring mutex, so they are exact and
// TSan-clean. Timestamps are sampled 1-in-kSampleEvery and read under the
// lock — the fast path performs no clock read at all.
#pragma once

#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/metrics.hpp"

namespace kalis::pipeline {

/// Policy applied by BoundedRing::push when the ring is full.
enum class Backpressure : std::uint8_t { kBlock, kDropNewest, kDropOldest };

const char* backpressureName(Backpressure p);

namespace detail {
/// One spin-loop pause: a core-local hint, never a syscall.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}
}  // namespace detail

template <typename T>
class BoundedRing {
 public:
  enum class PushResult : std::uint8_t {
    kOk,             ///< accepted, ring had room
    kOkBlocked,      ///< accepted after waiting for room (kBlock)
    kDroppedNewest,  ///< rejected: the incoming item was dropped
    kDroppedOldest,  ///< accepted, but the oldest queued item was evicted
    kClosed,         ///< rejected: the ring is closed
  };

  /// Per-call outcome of pushBatch: exact item tallies, equivalent to the
  /// sum of single-push results over the same sequence.
  struct BatchPushResult {
    std::size_t accepted = 0;       ///< items now in (or through) the ring
    std::size_t droppedNewest = 0;  ///< incoming items rejected
    std::size_t droppedOldest = 0;  ///< queued items evicted to make room
    std::size_t rejectedClosed = 0; ///< items refused because close()d
    bool blocked = false;           ///< at least one wait for room (kBlock)
  };

  /// A queued item plus its (sampled) enqueue timestamp for queue-wait
  /// latency; 0 when the item was not sampled.
  struct Item {
    T value{};
    std::uint64_t enqueuedNs = 0;
  };

  /// Exact event tallies since construction (guarded by the ring mutex).
  struct Stats {
    std::uint64_t pushed = 0;         ///< items accepted
    std::uint64_t droppedNewest = 0;  ///< incoming items rejected
    std::uint64_t droppedOldest = 0;  ///< queued items evicted
    std::uint64_t blockedPushes = 0;  ///< pushes that had to wait
    std::uint64_t closedPushes = 0;   ///< pushes rejected by close()
    std::uint64_t popped = 0;         ///< items handed to the consumer
    std::uint64_t batches = 0;        ///< popBatch calls that returned items
    std::uint64_t notifies = 0;       ///< consumer wake-ups actually issued
    std::uint64_t consumerWaits = 0;  ///< popBatch calls that parked
  };

  explicit BoundedRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {}

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// Enqueues one item under `policy`. Thread-safe for any number of
  /// producers. With kBlock this waits until a slot frees up or the ring
  /// is closed.
  PushResult push(const T& value, Backpressure policy) {
    const T* one = &value;
    const BatchPushResult r = pushBatch(&one, 1, policy);
    if (r.rejectedClosed > 0) return PushResult::kClosed;
    if (r.droppedNewest > 0) return PushResult::kDroppedNewest;
    if (r.droppedOldest > 0) return PushResult::kDroppedOldest;
    return r.blocked ? PushResult::kOkBlocked : PushResult::kOk;
  }

  /// Enqueues `count` items (array of pointers, in order) under ONE lock
  /// acquisition, with at most one consumer notify for the whole batch.
  /// Item-level semantics — acceptance, eviction order, every counter —
  /// are identical to pushing the same sequence one at a time. Thread-safe
  /// for any number of producers. With kBlock the call may wait (holding
  /// no lock) whenever the ring fills mid-batch; it first wakes the
  /// consumer so the wait always terminates.
  BatchPushResult pushBatch(const T* const* items, std::size_t count,
                            Backpressure policy) {
    BatchPushResult r;
    if (count == 0) return r;
    std::unique_lock<std::mutex> lock(mu_);
    std::size_t i = 0;
    while (i < count) {
      if (closed_) {
        stats_.closedPushes += count - i;
        r.rejectedClosed += count - i;
        break;
      }
      if (count_ == capacity_) {
        if (policy == Backpressure::kDropNewest) {
          stats_.droppedNewest += count - i;
          r.droppedNewest += count - i;
          break;
        }
        if (policy == Backpressure::kDropOldest) {
          head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
          --count_;
          ++stats_.droppedOldest;
          ++r.droppedOldest;
        } else {  // kBlock
          ++stats_.blockedPushes;
          r.blocked = true;
          // Wake the consumer before parking: items already inserted this
          // batch are what will free our slot, and the batch-level notify
          // only fires after the loop.
          if (count_ > 0 && waitingConsumers_ > 0) {
            ++stats_.notifies;
            notEmpty_.notify_one();
          }
          ++waitingProducers_;
          notFull_.wait(lock,
                        [this] { return closed_ || count_ < capacity_; });
          --waitingProducers_;
          continue;  // re-check closed_/full from the top
        }
      }
      Item& slot = slots_[tailIndex()];
      slot.value = *items[i];
      // 1-in-kSampleEvery pushes get a timestamp for the queue-wait
      // histogram; the clock is read only for those, under the lock.
      const bool sampled = (stats_.pushed % kSampleEvery) == 0;
      slot.enqueuedNs = sampled ? obs::nowNs() : 0;
      ++count_;
      ++stats_.pushed;
      ++r.accepted;
      ++i;
    }
    depth_.set(static_cast<double>(count_));
    const bool notify = r.accepted > 0 && waitingConsumers_ > 0;
    if (notify) ++stats_.notifies;
    lock.unlock();
    if (notify) notEmpty_.notify_one();
    return r;
  }

  /// Hands the consumer up to `maxBatch` queued items, oldest first, as a
  /// span over the ring-owned consumer batch. The span stays valid until
  /// this consumer's next pop; the items' storage goes back into the ring
  /// then. Blocks until at least one item is available or the ring is
  /// closed; an empty span means closed and fully drained. Single consumer.
  ///
  /// Before parking on the condvar the consumer spins briefly; the spin
  /// budget adapts (a fruitless spin round collapses it to zero until the
  /// next immediate hit), so an idle ring parks at once while a busy one
  /// never pays the futex round-trip.
  std::span<const Item> popBatch(std::size_t maxBatch) {
    for (int spin = spinBudget_; spin > 0; --spin) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (count_ > 0 || closed_) {
          spinBudget_ = kSpinIters;
          return popLocked(lock, maxBatch);
        }
      }
      for (int i = 0; i < kPausePerSpin; ++i) detail::cpuRelax();
    }
    spinBudget_ = 0;  // adaptive: don't spin again until data shows up hot
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == 0 && !closed_) {
      ++stats_.consumerWaits;
      ++waitingConsumers_;
      notEmpty_.wait(lock, [this] { return closed_ || count_ > 0; });
      --waitingConsumers_;
    } else {
      spinBudget_ = kSpinIters;  // data arrived between spin and lock
    }
    return popLocked(lock, maxBatch);
  }

  /// Non-blocking popBatch: returns an empty span at once when the ring is
  /// empty (open or closed). Used by consumers that poll at batch
  /// boundaries, e.g. the knowledge-exchange drain.
  std::span<const Item> tryPopBatch(std::size_t maxBatch) {
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == 0) return {};
    return popLocked(lock, maxBatch);
  }

  /// Rejects all future pushes and wakes every waiter; queued items stay
  /// drainable via popBatch (drain-on-shutdown).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    notFull_.notify_all();
    notEmpty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  std::size_t capacity() const { return capacity_; }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Appends ring metrics under `prefix` (e.g. "pipeline.shard.0.ring").
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const {
    std::lock_guard<std::mutex> lock(mu_);
    reg.counter(prefix + ".pushed", stats_.pushed);
    reg.counter(prefix + ".dropped_newest", stats_.droppedNewest);
    reg.counter(prefix + ".dropped_oldest", stats_.droppedOldest);
    reg.counter(prefix + ".blocked_pushes", stats_.blockedPushes);
    reg.counter(prefix + ".closed_pushes", stats_.closedPushes);
    reg.counter(prefix + ".popped", stats_.popped);
    reg.counter(prefix + ".batches", stats_.batches);
    reg.counter(prefix + ".notifies", stats_.notifies);
    reg.counter(prefix + ".consumer_waits", stats_.consumerWaits);
    reg.gauge(prefix + ".depth", depth_);
    reg.histogram(prefix + ".queue_wait_ns", queueWaitNs_);
    reg.histogram(prefix + ".batch_size", batchSize_);
  }

  /// Queue-wait latency is sampled 1 push in kSampleEvery (cf.
  /// ModuleManager::kLatencySampleEvery).
  static constexpr std::uint64_t kSampleEvery = 16;
  /// Consumer spin-then-wait tuning: up to kSpinIters lock-and-peek rounds
  /// of kPausePerSpin pause hints each (~a few µs total) before parking.
  static constexpr int kSpinIters = 48;
  static constexpr int kPausePerSpin = 32;

 private:
  std::size_t tailIndex() const {
    const std::size_t t = head_ + count_;
    return t >= capacity_ ? t - capacity_ : t;
  }

  /// Pop body shared by the blocking and non-blocking variants; requires
  /// count_ > 0 or closed_, with `lock` held on mu_.
  std::span<const Item> popLocked(std::unique_lock<std::mutex>& lock,
                                  std::size_t maxBatch) {
    const std::size_t n = std::min(maxBatch == 0 ? 1 : maxBatch, count_);
    if (n == 0) return {};
    if (batch_.size() < n) batch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Item& slot = slots_[head_];
      if (slot.enqueuedNs != 0) queueWaitNs_.record(obs::nowNs() - slot.enqueuedNs);
      std::swap(batch_[i], slot);
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    count_ -= n;
    stats_.popped += n;
    ++stats_.batches;
    batchSize_.record(n);
    depth_.set(static_cast<double>(count_));
    const bool wakeProducers = waitingProducers_ > 0;
    lock.unlock();
    if (wakeProducers) notFull_.notify_all();  // several may be parked
    return {batch_.data(), n};
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable notFull_;
  std::condition_variable notEmpty_;
  std::vector<Item> slots_;
  /// Consumer batch; [0, n) of the last pop is the consumer's span. Swapped
  /// with slots under mu_, read outside it only by the one consumer.
  std::vector<Item> batch_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
  std::size_t waitingConsumers_ = 0;  ///< parked popBatch callers (mu_)
  std::size_t waitingProducers_ = 0;  ///< parked kBlock pushers (mu_)
  /// Consumer-thread-only spin budget (single consumer; touched outside
  /// mu_ exclusively by that one thread).
  int spinBudget_ = kSpinIters;
  Stats stats_;
  obs::Gauge depth_;
  obs::Histogram queueWaitNs_;
  obs::Histogram batchSize_;
};

/// The ingress packet queue of each pipeline shard (MPSC).
using PacketRing = BoundedRing<net::CapturedPacket>;

inline const char* backpressureName(Backpressure p) {
  switch (p) {
    case Backpressure::kBlock: return "block";
    case Backpressure::kDropNewest: return "drop-newest";
    case Backpressure::kDropOldest: return "drop-oldest";
  }
  return "?";
}

}  // namespace kalis::pipeline
