// Hierarchical collective knowledge exchange (DESIGN.md §11, paper §IV-B3).
//
// The flat KnowledgeExchange of kalis::pipeline fans every publish out to
// every peer — O(shards²) deliveries, fine for a handful of shards, fatal
// for 100k homes. HierarchicalExchange carries the same one-way knowledge
// flow in the paper's natural deployment shape:
//
//     home ──publish──▶ region inbox ──syncRegion──▶ region table
//                                          │              │
//                                          ▼              ▼
//                                    region up-buffer  region log ──▶ homes
//                                          │
//                              syncGlobal (region order)
//                                          ▼
//                                    global table ──▶ global log ──▶ regions
//
// The tier primitives:
//   - Region inbox and up-buffer: bounded drop-oldest FIFOs of TierItems.
//     The inbox keeps an applied watermark; the up-buffers, merged in
//     region order, are the global tier's inbox.
//   - TierTable: the tier's merged view under the paper's one-way update
//     rule — an entry may only be created/updated by its original creator;
//     same-value re-applies are "unchanged" and are NOT re-forwarded, which
//     is what keeps the up/down flow loop-free.
//   - BroadcastLog: a bounded single-writer sequence log that fans a tier's
//     accepted entries out to an arbitrary number of readers in O(1) per
//     entry (readers keep a cursor; falling behind the ring counts as
//     `missed` — the overflow-accounting analogue of droppedInFlight).
//
// Synchronization model: every piece of state has exactly one writer
// between two crossings of the fleet's round barrier. A region's inbox,
// up-buffer, table, log, cursor and tallies belong to the worker that owns
// the region; the global tier, the up-buffers' merge and the shutdown
// reconciliation run only in the barrier's completion step; each home's
// final deposit slot is written by its owning worker and read in that
// step. The barrier's happens-before orders all of it, so nothing here is
// atomic or locked.
//
// Shutdown reconciliation mirrors the flat exchange: each home's final own
// collective set is deposited (finishChild), reconcile() drains every inbox
// and folds the finals into the global table, and a final downward pass
// applies the global snapshot to every region and home — convergence
// regardless of drop-oldest evictions.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kalis/knowledge.hpp"
#include "util/types.hpp"

namespace kalis::fleet {

/// A collective knowgget in flight through the tiers, stamped with the
/// publishing home's clock.
struct TierItem {
  ids::Knowgget knowgget;
  SimTime publishedAt = 0;
};

/// A bounded, single-writer broadcast ring with monotonically increasing
/// sequence numbers. The writer appends; any number of readers each hold a
/// Cursor and poll for entries newer than their position. A reader that
/// falls more than `capacity` entries behind loses the overwritten ones —
/// they are tallied in Cursor::missed, never silently skipped. The ring
/// grows to `capacity` as entries arrive, so a log nobody writes costs
/// nothing.
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
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Appends one entry, overwriting the oldest once full.
  void append(const TierItem& item) {
    if (entries_.size() < capacity_) {
      entries_.push_back(item);
    } else {
      entries_[head_ % capacity_] = item;
    }
    ++head_;
  }

  /// Hands every entry the cursor has not seen to `fn`, oldest first,
  /// charging overwritten ones to `cursor.missed`. Returns entries read.
  template <typename Fn>
  std::size_t poll(Cursor& cursor, Fn&& fn) const {
    if (cursor.next >= head_) return 0;
    const std::uint64_t oldest = head_ > capacity_ ? head_ - capacity_ : 0;
    if (cursor.next < oldest) {
      cursor.missed += oldest - cursor.next;
      cursor.next = oldest;
    }
    std::size_t read = 0;
    for (; cursor.next < head_; ++cursor.next, ++read) {
      fn(entries_[cursor.next % capacity_]);
    }
    return read;
  }

  std::uint64_t head() const { return head_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::vector<TierItem> entries_;  ///< grows to capacity_, then wraps
  std::size_t capacity_;
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
/// dense [0, N).
class HierarchicalExchange {
 public:
  struct Options {
    std::size_t regions = 1;
    std::size_t regionInboxCapacity = 256;  ///< per-region home→region FIFO
    std::size_t globalInboxCapacity = 1024; ///< region→global, kept per sync
    std::size_t regionLogCapacity = 256;    ///< region→home broadcast ring
    std::size_t globalLogCapacity = 1024;   ///< global→region broadcast ring
    std::size_t homes = 0;                  ///< finishChild deposit slots
  };

  /// Exact tallies, summed over the regions' own counters and the global
  /// tier's; read while quiescent. Once the exchange is reconciled, two
  /// identities must close exactly — any gap is an *unaccounted* loss (a
  /// bug):
  ///   published       == regionDrained + regionDropped
  ///   globalForwarded == globalDrained + globalDropped
  struct Stats {
    std::uint64_t published = 0;        ///< knowggets handed in by homes
    std::uint64_t regionDrained = 0;    ///< items drained from region inboxes
    std::uint64_t regionDropped = 0;    ///< region-inbox drop-oldest evictions
    std::uint64_t globalForwarded = 0;  ///< region-accepted items sent upward
    std::uint64_t globalDrained = 0;    ///< items applied by syncGlobal
    std::uint64_t globalDropped = 0;    ///< upward drop-oldest evictions
    std::uint64_t regionAccepted = 0;   ///< region-table accepts
    std::uint64_t regionRejected = 0;   ///< region-table one-way refusals
    std::uint64_t globalAccepted = 0;
    std::uint64_t globalRejected = 0;
    std::uint64_t regionLogMissed = 0;  ///< home cursors overrun (summed)
    std::uint64_t globalLogMissed = 0;  ///< region cursors overrun (summed)

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  explicit HierarchicalExchange(Options options);

  // --- upward flow ----------------------------------------------------------

  /// Home `home` of region `region` publishes one changed collective
  /// knowgget at its clock `at`. Never blocks (drop-oldest region inbox).
  /// The region's owning worker only.
  void publishFromHome(std::size_t home, std::size_t region,
                       const ids::Knowgget& k, SimTime at);

  /// Drains region `r`'s inbox into its table; accepted entries go to the
  /// region log (for homes) and the region's up-buffer (for the fleet),
  /// which keeps the newest globalInboxCapacity of them. Owning worker
  /// only. Returns entries drained.
  std::size_t syncRegion(std::size_t r);

  /// Takes every region's up-buffer, in region order, keeps the newest
  /// globalInboxCapacity entries of the lot (the rest count as
  /// globalDropped) and applies them to the global table; accepted entries
  /// go to the global log. Barrier completion step only. Returns entries
  /// applied.
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
    return regions_[r].log.poll(cursor, std::forward<Fn>(fn));
  }

  // --- bounded staleness ----------------------------------------------------

  SimTime regionWatermark(std::size_t r) const {
    return regions_[r].inboxWatermark;
  }
  SimTime globalWatermark() const { return globalWatermark_; }

  // --- shutdown reconciliation ---------------------------------------------

  /// Deposits home `home`'s final own collective knowggets into the home's
  /// slot. The home's owning worker, once per home, during shutdown.
  void finishChild(std::size_t home, std::vector<ids::Knowgget> finalOwn);

  /// Drains every region inbox and up-buffer into the global table, then
  /// folds in all deposited finals — repairing drop-oldest evictions.
  /// Barrier completion step only, after every home deposited.
  void reconcile();

  /// The converged global view after reconcile(), for the downward pass.
  const std::map<std::string, ids::Knowgget>& globalSnapshot() const {
    return globalTable_.entries();
  }

  /// Charges a home cursor's missed tally of region `r`'s log into Stats.
  /// The region's owning worker, during the downward reconciliation pass.
  void chargeRegionLogMissed(std::size_t r, std::uint64_t missed) {
    regions_[r].tally.regionLogMissed += missed;
  }

  Stats stats() const;

 private:
  struct Region {
    explicit Region(std::size_t logCap) : log(logCap) {}
    std::deque<TierItem> inbox;  ///< home → region, drop-oldest
    SimTime inboxWatermark = 0;  ///< highest publishedAt drained
    std::deque<TierItem> up;     ///< region → global, drop-oldest
    TierTable table;             ///< region's merged view
    BroadcastLog log;            ///< region → home fan-out
    BroadcastLog::Cursor globalCursor;  ///< position in the global log
    /// The region's own counters; globalDropped counts its up-buffer's
    /// drops. globalDrained, globalAccepted and globalRejected belong to
    /// the global tier, and globalLogMissed is globalCursor.missed.
    Stats tally;
  };

  void applyToRegion(Region& region, const TierItem& item, bool forwardUp);
  TierTable::Apply applyToGlobal(const ids::Knowgget& k);

  std::size_t regionInboxCapacity_;
  std::size_t globalInboxCapacity_;
  std::vector<Region> regions_;
  TierTable globalTable_;        ///< fleet-wide view
  BroadcastLog globalLog_;       ///< global → region fan-out
  SimTime globalWatermark_ = 0;  ///< highest publishedAt applied globally
  /// The global tier's counters: globalDrained, globalAccepted,
  /// globalRejected and the globalDropped of syncGlobal's merge.
  Stats globalTally_;

  std::vector<std::vector<ids::Knowgget>> finalKnowledge_;  ///< per home
};

}  // namespace kalis::fleet
