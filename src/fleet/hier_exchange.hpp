// Hierarchical collective knowledge exchange (DESIGN.md §11, paper §IV-B3).
//
// The flat KnowledgeExchange of kalis::pipeline fans every publish out to
// every peer — O(shards²) deliveries, fine for a handful of shards, fatal
// for 100k homes. HierarchicalExchange generalizes the same machinery into
// the paper's natural deployment shape:
//
//     home ──publish──▶ region inbox ──syncRegion──▶ region table
//                                          │              │
//                                          ▼              ▼
//                                    global inbox    region log ──▶ homes
//                                          │
//                                     syncGlobal
//                                          ▼
//                                    global table ──▶ global log ──▶ regions
//
// Every tier reuses the primitives already proven in the flat exchange:
//   - KnowledgeInbox (pipeline/knowledge_exchange.hpp): bounded drop-oldest
//     ring + applied watermark. Region inboxes are single-producer (the
//     worker that owns the region's homes), the global inbox is MPSC.
//   - TierTable: the tier's merged view under the paper's one-way update
//     rule — an entry may only be created/updated by its original creator;
//     same-value re-applies are "unchanged" and are NOT re-forwarded, which
//     is what keeps the up/down flow loop-free.
//   - BroadcastLog: a bounded single-writer sequence log that fans a tier's
//     accepted entries out to an arbitrary number of readers in O(1) per
//     entry (readers keep a cursor; falling behind the ring counts as
//     `missed` — the overflow-accounting analogue of droppedInFlight).
//
// Synchronization model: all log/table state of a tier is written only by
// the tier's owning worker (regions) or inside the round-barrier completion
// step (global), and readers only advance cursors between barriers — the
// barrier's happens-before makes plain (non-atomic) log memory TSan-clean.
// Only the inboxes and the reconciliation deposit are cross-thread.
//
// Shutdown reconciliation mirrors the flat exchange: each home's final own
// collective set is deposited (finishChild), reconcile() drains every inbox
// and folds the finals into the global table, and a final downward pass
// applies the global snapshot to every region and home — convergence
// regardless of interleaving or in-flight drop-oldest evictions.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kalis/knowledge.hpp"
#include "pipeline/knowledge_exchange.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace kalis::fleet {

using pipeline::KnowledgeInbox;
using pipeline::RemoteKnowgget;

/// A bounded, single-writer broadcast ring with monotonically increasing
/// sequence numbers. The writer appends; any number of readers each hold a
/// Cursor and poll for entries newer than their position. A reader that
/// falls more than `capacity` entries behind loses the overwritten ones —
/// they are tallied in Cursor::missed, never silently skipped.
///
/// NOT internally synchronized: writer and readers must be ordered by an
/// external happens-before (the fleet's round barrier).
class BroadcastLog {
 public:
  struct Cursor {
    std::uint64_t next = 0;    ///< first sequence not yet consumed
    std::uint64_t missed = 0;  ///< entries overwritten before being read
  };

  explicit BroadcastLog(std::size_t capacity)
      : entries_(capacity == 0 ? 1 : capacity) {}

  /// Appends one entry, overwriting the oldest once full.
  void append(const RemoteKnowgget& item) {
    entries_[head_ % entries_.size()] = item;
    ++head_;
  }

  /// Hands every entry the cursor has not seen to `fn`, oldest first,
  /// charging overwritten ones to `cursor.missed`. Returns entries read.
  template <typename Fn>
  std::size_t poll(Cursor& cursor, Fn&& fn) const {
    if (cursor.next >= head_) return 0;
    const std::uint64_t oldest =
        head_ > entries_.size() ? head_ - entries_.size() : 0;
    if (cursor.next < oldest) {
      cursor.missed += oldest - cursor.next;
      cursor.next = oldest;
    }
    std::size_t read = 0;
    for (; cursor.next < head_; ++cursor.next, ++read) {
      fn(entries_[cursor.next % entries_.size()]);
    }
    return read;
  }

  std::uint64_t head() const { return head_; }
  std::size_t capacity() const { return entries_.size(); }

 private:
  std::vector<RemoteKnowgget> entries_;
  std::uint64_t head_ = 0;  ///< total appends; next sequence to assign
};

/// A tier's merged collective view under the one-way update rule.
class TierTable {
 public:
  enum class Apply : std::uint8_t {
    kAccepted,   ///< new entry or changed value — forward further
    kUnchanged,  ///< same value already present — do NOT re-forward
    kRejected,   ///< one-way rule violation (creator mismatch on the key)
  };

  Apply apply(const ids::Knowgget& k);

  const std::map<std::string, ids::Knowgget>& entries() const {
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, ids::Knowgget> entries_;  ///< by encoded key
};

/// The home → region → global exchange. Indices: homes and regions are
/// dense [0, N); `fromShard` in RemoteKnowgget carries the publishing home.
class HierarchicalExchange {
 public:
  struct Options {
    std::size_t regions = 1;
    std::size_t regionInboxCapacity = 256;  ///< per-region home→region ring
    std::size_t globalInboxCapacity = 1024; ///< region→global ring (MPSC)
    std::size_t regionLogCapacity = 256;    ///< region→home broadcast ring
    std::size_t globalLogCapacity = 1024;   ///< global→region broadcast ring
    std::size_t homes = 0;                  ///< for finishChild accounting
  };

  /// Exact tallies. Inbox counters are atomics (crossed by worker threads);
  /// table/log counters are owned by the barrier structure and read after
  /// shutdown. Once the exchange is quiescent and reconciled, two identities
  /// must close exactly — any gap is an *unaccounted* loss (a bug):
  ///   published       == regionDrained + regionDropped
  ///   globalForwarded == globalDrained + globalDropped
  struct Stats {
    std::uint64_t published = 0;        ///< knowggets handed in by homes
    std::uint64_t regionDrained = 0;    ///< items drained from region inboxes
    std::uint64_t regionDropped = 0;    ///< region-inbox drop-oldest evictions
    std::uint64_t globalForwarded = 0;  ///< region-accepted items sent upward
    std::uint64_t globalDrained = 0;    ///< items drained from the global inbox
    std::uint64_t globalDropped = 0;    ///< global-inbox drop-oldest evictions
    std::uint64_t regionAccepted = 0;   ///< region-table accepts
    std::uint64_t regionRejected = 0;   ///< region-table one-way refusals
    std::uint64_t globalAccepted = 0;
    std::uint64_t globalRejected = 0;
    std::uint64_t regionLogMissed = 0;  ///< home cursors overrun (summed)
    std::uint64_t globalLogMissed = 0;  ///< region cursors overrun (summed)
  };

  explicit HierarchicalExchange(Options options);

  // --- upward flow ----------------------------------------------------------

  /// Home `home` publishes one changed collective knowgget at its clock
  /// `at`. Never blocks (drop-oldest region inbox). Any thread.
  void publishFromHome(std::size_t home, std::size_t region,
                       const ids::Knowgget& k, SimTime at);

  /// Drains region `r`'s inbox into its table; accepted entries go to the
  /// region log (for homes) and the global inbox (for the fleet). Owning
  /// worker only. Returns entries drained.
  std::size_t syncRegion(std::size_t r);

  /// Drains the global inbox into the global table; accepted entries go to
  /// the global log. Single-threaded: call from the barrier completion step
  /// only. Returns entries drained.
  std::size_t syncGlobal();

  // --- downward flow --------------------------------------------------------

  /// Pulls global-log entries newer than region `r`'s cursor into the
  /// region table + region log. Owning worker only, between barriers.
  std::size_t pullGlobalIntoRegion(std::size_t r);

  /// Pulls region-log entries newer than `cursor` and hands them to `fn`
  /// (the home applies them via KnowledgeBase::putRemote). The home skips
  /// its own creations by creator check inside `fn`.
  template <typename Fn>
  std::size_t pullRegionIntoHome(std::size_t r, BroadcastLog::Cursor& cursor,
                                 Fn&& fn) const {
    return regions_[r]->log.poll(cursor, std::forward<Fn>(fn));
  }

  // --- bounded staleness ----------------------------------------------------

  SimTime regionWatermark(std::size_t r) const {
    return regions_[r]->inbox.appliedWatermark();
  }
  SimTime globalWatermark() const { return globalInbox_.appliedWatermark(); }

  // --- shutdown reconciliation ---------------------------------------------

  /// Deposits home `home`'s final own collective knowggets. Thread-safe;
  /// call exactly once per home during shutdown.
  void finishChild(std::size_t home, std::vector<ids::Knowgget> finalOwn);

  /// True once every home deposited. (The fleet's barrier already provides
  /// the rendezvous; this is the accounting check.)
  bool allChildrenFinished() const;

  /// Drains every region inbox + the global inbox into the global table,
  /// then folds in all deposited finals — repairing drop-oldest evictions.
  /// Single-threaded (barrier completion step). Requires
  /// allChildrenFinished().
  void reconcile();

  /// The converged global view after reconcile(), for the downward pass.
  const std::map<std::string, ids::Knowgget>& globalSnapshot() const {
    return globalTable_.entries();
  }

  /// Charges a home cursor's missed tally into Stats (call while quiescent,
  /// e.g. during the downward reconciliation pass).
  void chargeRegionLogMissed(std::uint64_t missed) {
    regionLogMissed_.fetch_add(missed, std::memory_order_relaxed);
  }

  Stats stats() const;

  /// Appends tier counters + per-inbox ring metrics under `prefix`
  /// (e.g. "fleet.exchange"). Call while quiescent.
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  struct Region {
    Region(std::size_t inboxCap, std::size_t logCap)
        : inbox(inboxCap), log(logCap) {}
    KnowledgeInbox inbox;        ///< home → region (single producer: owner)
    TierTable table;             ///< region's merged view (owner-only)
    BroadcastLog log;            ///< region → home fan-out (owner writes)
    BroadcastLog::Cursor globalCursor;  ///< position in the global log
  };

  TierTable::Apply applyToRegion(std::size_t r, const RemoteKnowgget& item,
                                 bool forwardUp);

  std::vector<std::unique_ptr<Region>> regions_;
  KnowledgeInbox globalInbox_;   ///< region → global (MPSC)
  TierTable globalTable_;        ///< fleet-wide view (barrier-completion only)
  BroadcastLog globalLog_;       ///< global → region fan-out

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> regionDrained_{0};
  std::atomic<std::uint64_t> regionDropped_{0};
  std::atomic<std::uint64_t> globalForwarded_{0};
  std::atomic<std::uint64_t> globalDrained_{0};
  std::atomic<std::uint64_t> globalDropped_{0};
  std::atomic<std::uint64_t> regionAccepted_{0};
  std::atomic<std::uint64_t> regionRejected_{0};
  std::atomic<std::uint64_t> regionLogMissed_{0};
  std::uint64_t globalAccepted_ = 0;   ///< barrier-completion only
  std::uint64_t globalRejected_ = 0;   ///< barrier-completion only
  std::uint64_t globalLogMissed_ = 0;  ///< summed region cursors (quiescent)

  mutable std::mutex finishMu_;
  std::vector<std::vector<ids::Knowgget>> finalKnowledge_;
  std::size_t finishedCount_ = 0;
  std::size_t homes_ = 0;
};

}  // namespace kalis::fleet
