// Link-level fault injector (DESIGN.md §9): realizes a FaultPlan's link
// knobs through the sim::World chaos seam — Gilbert-Elliott-style burst loss
// per directed link, frame duplication, reordering delays, bit-flip
// corruption, Gaussian RSSI jitter, and scheduled node crash/restart.
//
// Determinism: all decisions draw from one Rng seeded by FaultPlan::seed,
// and the simulator dispatches events in a deterministic order, so a given
// (scenario seed, plan) pair replays the exact same fault sequence. With an
// all-zero plan every hook returns the neutral fault without consuming a
// single random draw, keeping the run byte-for-byte identical to an
// uninstrumented one.
#pragma once

#include <map>
#include <memory>
#include <tuple>

#include "chaos/fault_plan.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace kalis::chaos {

class LinkChaos final : public sim::LinkFaultInjector {
 public:
  /// Installs itself on `world` and, when the plan crashes nodes, schedules
  /// the first crash for every non-IDS node present at install time. Must
  /// outlive the last Simulator::run* call; detaches on destruction.
  LinkChaos(sim::World& world, const FaultPlan& plan);
  ~LinkChaos() override;

  LinkChaos(const LinkChaos&) = delete;
  LinkChaos& operator=(const LinkChaos&) = delete;

  /// Exact tallies of every injected fault — the "accounted" side of
  /// diffAlertStreams' accounted-loss classification.
  struct Stats {
    std::uint64_t rxDropped = 0;   ///< per-receiver burst-loss drops
    std::uint64_t corrupted = 0;   ///< frames bit-flipped in flight
    std::uint64_t duplicated = 0;  ///< extra deliveries injected
    std::uint64_t delayed = 0;     ///< transmissions pushed into the window
    std::uint64_t crashes = 0;     ///< node crash events fired
    std::uint64_t faults() const {
      return rxDropped + corrupted + duplicated + delayed + crashes;
    }
    /// Field-wise sum: the faults of several recorded worlds together.
    friend Stats operator+(Stats a, const Stats& b) {
      a.rxDropped += b.rxDropped;
      a.corrupted += b.corrupted;
      a.duplicated += b.duplicated;
      a.delayed += b.delayed;
      a.crashes += b.crashes;
      return a;
    }
  };
  const Stats& stats() const { return stats_; }

  TxFault onTransmit(NodeId from, net::Medium medium, const Bytes& frame,
                     SimTime now) override;
  RxFault onReceive(NodeId from, NodeId to, net::Medium medium,
                    SimTime now) override;

 private:
  void scheduleCrash(NodeId id);

  sim::World& world_;
  FaultPlan plan_;
  Rng rng_;
  /// Directed-link burst state: (from, to, medium) -> currently in a burst.
  std::map<std::tuple<NodeId, NodeId, int>, bool> inBurst_;
  Stats stats_;
};

/// Convenience for scenario runners: installs a LinkChaos when `plan` is
/// non-null (even if all-zero — transparency is asserted in tests), returns
/// nullptr otherwise. The guard must outlive the run.
std::unique_ptr<LinkChaos> installFaultPlan(sim::World& world,
                                            const FaultPlan* plan);

}  // namespace kalis::chaos
