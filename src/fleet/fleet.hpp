// The fleet orchestrator (DESIGN.md §11): N simulated homes multiplexed
// over a bounded worker pool, coupled through the hierarchical exchange.
//
// Topology and ownership. Homes are partitioned into regions by contiguous
// index ranges, and regions are partitioned across workers the same way —
// so every home, region inbox, up-buffer, table, log and tally has exactly
// one owning worker thread. Homes are *built* on their owning worker (the
// KB ownership checker binds there) and only ever touched by it. The global
// tier is touched only in the barrier's completion step, so the barrier is
// the fleet's only synchronization.
//
// Round structure. All workers advance their homes in lockstep scheduling
// rounds of kRoundQuantum virtual time, separated by a generation barrier
// whose last arriver runs the serial completion step:
//
//   parallel, per worker:
//     every globalPullEvery rounds: pullGlobalIntoRegion for owned regions
//     per home: pull region log → step(round) → publish changed collective
//     every regionSyncEvery rounds: syncRegion for owned regions
//   barrier completion (one thread):
//     every globalSyncEvery rounds: syncGlobal (up-buffers in region order)
//     propagation bookkeeping, stop decision
//
// Bounded staleness. A knowgget published in round R is visible in every
// other home no later than R + stalenessBoundRounds() rounds (absent
// overflow, which reconciliation repairs): one regionSyncEvery wait to
// leave the home's region, one globalSyncEvery wait to clear the global
// tier, one globalPullEvery wait to enter the destination region, plus the
// destination home's next pull. The three cadences are Options.
//
// Shutdown reconciliation (mirrors the flat exchange): after the last
// round, each worker deposits every owned home's final own collective set
// (finishChild, into the home's own slot); the barrier completion step
// runs reconcile(); a final parallel pass applies the converged global
// snapshot downward into every region table and home KB — so all homes end
// with the same collective view regardless of drop-oldest evictions.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "fleet/hier_exchange.hpp"
#include "fleet/home_model.hpp"
#include "util/types.hpp"

namespace kalis::fleet {

/// A mutex+condvar generation barrier whose last arriver runs a completion
/// hook before releasing the others. (std::barrier's completion function
/// has historically been noisy under TSan; this stays on primitives the
/// rest of the codebase already trusts.)
class RoundBarrier {
 public:
  explicit RoundBarrier(std::size_t parties) : parties_(parties) {}

  /// Blocks until all parties arrive; the last arriver runs `completion`
  /// (may be empty) before waking the rest.
  void arriveAndWait(const std::function<void()>& completion);

 private:
  const std::size_t parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// Current resident set size of this process in bytes (Linux /proc/self/statm;
/// 0 where unavailable).
std::size_t currentRssBytes();

/// Virtual time per scheduling round.
inline constexpr SimTime kRoundQuantum = milliseconds(100);

class Fleet {
 public:
  struct Options {
    std::size_t homes = 1000;
    std::size_t regions = 16;
    std::size_t workers = 4;        ///< bounded pool; clamped to regions
    std::uint64_t seed = 1;
    std::uint32_t rounds = 32;      ///< scheduling rounds to simulate

    // Hierarchy sync cadence, in rounds (the staleness knobs).
    std::uint32_t regionSyncEvery = 1;
    std::uint32_t globalSyncEvery = 1;
    std::uint32_t globalPullEvery = 1;

    /// true: all homes of a region share one immutable BaselineSegment
    /// (CoW overlays — the sublinear memory model). false: every home
    /// materializes a private copy of the baseline into its overlay (the
    /// naive model bench_fleet compares against).
    bool shareBaseline = true;
  };

  struct PropagationReport {
    bool activated = false;        ///< the origin home learned the signature
    std::uint32_t originHome = 0;
    std::uint32_t activationRound = 0;
    /// Homes that eventually observed the signature, and the worst-case lag
    /// (rounds / virtual time) between activation and observation.
    std::size_t homesObserved = 0;
    std::size_t homesTotal = 0;
    std::uint32_t maxLagRounds = 0;
    SimTime maxLagVirtual = 0;
    double meanLagRounds = 0.0;
  };

  struct Stats {
    std::uint64_t packetsProcessed = 0;
    std::uint64_t alertsRaised = 0;
    HierarchicalExchange::Stats exchange;
    std::size_t homeHeapBytes = 0;      ///< sum of HomeNode::memoryBytes
    std::size_t baselineBytes = 0;      ///< shared segments, counted once each
    PropagationReport propagation;
  };

  explicit Fleet(Options options);

  /// Builds the fleet (homes constructed on their owning workers), runs
  /// `rounds` scheduling rounds, reconciles, joins the pool. Call once.
  void run();

  const Options& options() const { return options_; }

  /// Upper bound, in rounds, on publish→observe lag between any two homes
  /// (absent ring overflow): see the header comment.
  std::uint32_t stalenessBoundRounds() const;
  SimTime stalenessBoundVirtual() const {
    return static_cast<SimTime>(stalenessBoundRounds()) * kRoundQuantum;
  }

  Stats stats() const { return stats_; }

  /// The collective view of home `h` after run() — the convergence set the
  /// reconciliation tests compare across homes.
  std::vector<ids::Knowgget> homeCollectiveView(std::size_t h) const;

 private:
  struct WorkerRange {
    std::size_t firstRegion = 0, lastRegion = 0;  ///< [first, last)
    std::size_t firstHome = 0, lastHome = 0;      ///< [first, last)
  };

  void workerMain(std::size_t w);
  void buildHomes(std::size_t w);
  void completeRound();
  std::size_t homeRangeBegin(std::size_t region) const;
  std::size_t homeRangeEnd(std::size_t region) const;

  Options options_;
  std::unique_ptr<HierarchicalExchange> exchange_;
  std::vector<WorkerRange> ranges_;
  std::unique_ptr<RoundBarrier> barrier_;

  // Home storage: slot h is written only by its owning worker (build, step,
  // reconcile) — plain memory ordered by the round barrier.
  std::vector<std::unique_ptr<HomeNode>> homes_;
  std::vector<BroadcastLog::Cursor> homeCursors_;  ///< region-log positions
  std::vector<std::shared_ptr<const ids::BaselineSegment>> regionBaselines_;

  // Round state, written in the barrier completion step only.
  std::uint32_t round_ = 0;
  enum class Phase : std::uint8_t { kRun, kFinish, kApplyFinals, kDone };
  Phase phase_ = Phase::kRun;

  // Propagation tracking: slot h written only by h's owning worker.
  std::vector<std::uint32_t> sigSeenRound_;  ///< UINT32_MAX = unseen
  std::uint32_t originHome_ = 0;
  std::uint32_t activationRound_ = UINT32_MAX;  ///< completion-step copy

  // Per-worker tallies, merged after join.
  struct WorkerTally {
    std::uint64_t packets = 0;
    std::uint64_t alerts = 0;
    std::uint32_t learnedRound = UINT32_MAX;  ///< origin activation, if owned
  };
  std::vector<WorkerTally> tallies_;

  Stats stats_;
  bool ran_ = false;
};

}  // namespace kalis::fleet
