#include "chaos/link_chaos.hpp"

#include <algorithm>

namespace kalis::chaos {

LinkChaos::LinkChaos(sim::World& world, const FaultPlan& plan)
    : world_(world), plan_(plan), rng_(plan.seed) {
  world_.setFaultInjector(this);
  if (plan_.crashMeanUptime > 0) {
    for (NodeId id = 0; id < world_.nodeCount(); ++id) {
      if (world_.roleOf(id) == sim::NodeRole::kIdsBox) continue;
      scheduleCrash(id);
    }
  }
}

LinkChaos::~LinkChaos() {
  if (world_.faultInjector() == this) world_.setFaultInjector(nullptr);
}

void LinkChaos::scheduleCrash(NodeId id) {
  // A draw past the end of virtual time saturates: that node never crashes.
  const Duration uptime =
      toDuration(rng_.nextExponential(
                     static_cast<double>(plan_.crashMeanUptime)),
                 microseconds(1))
          .value_or(kSimTimeMax);
  world_.sim().schedule(uptime, [this, id] {
    ++stats_.crashes;
    world_.setDownFor(id, plan_.crashDowntime);
    world_.sim().schedule(plan_.crashDowntime,
                          [this, id] { scheduleCrash(id); });
  });
}

LinkChaos::TxFault LinkChaos::onTransmit(NodeId /*from*/,
                                         net::Medium /*medium*/,
                                         const Bytes& frame, SimTime /*now*/) {
  TxFault fault;
  if (plan_.corruptProb > 0.0 && !frame.empty() &&
      rng_.nextBool(plan_.corruptProb)) {
    Bytes flipped = frame;
    const int flips =
        1 + static_cast<int>(rng_.nextBelow(
                static_cast<std::uint64_t>(std::max(1, plan_.corruptBitsMax))));
    for (int i = 0; i < flips; ++i) {
      const std::uint64_t bit = rng_.nextBelow(flipped.size() * 8);
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    fault.corrupted = std::move(flipped);
    ++stats_.corrupted;
  }
  if (plan_.duplicateProb > 0.0 && rng_.nextBool(plan_.duplicateProb)) {
    fault.duplicates = 1;
    ++stats_.duplicated;
  }
  if (plan_.reorderProb > 0.0 && plan_.reorderWindow > 0 &&
      rng_.nextBool(plan_.reorderProb)) {
    fault.extraDelay = 1 + rng_.nextBelow(plan_.reorderWindow);
    ++stats_.delayed;
  }
  // Whole-transmission drops are modeled as a burst hitting every receiver
  // (onReceive); a tx-level drop knob would double-count against lossStart.
  return fault;
}

LinkChaos::RxFault LinkChaos::onReceive(NodeId from, NodeId to,
                                        net::Medium medium, SimTime /*now*/) {
  RxFault fault;
  if (plan_.lossStart > 0.0) {
    bool& burst = inBurst_[{from, to, static_cast<int>(medium)}];
    if (burst) {
      fault.drop = true;
      ++stats_.rxDropped;
      // Geometric burst length: stay in the burst with prob 1 - 1/len.
      if (plan_.lossBurstLen <= 1.0 ||
          rng_.nextBool(1.0 / plan_.lossBurstLen)) {
        burst = false;
      }
    } else if (rng_.nextBool(plan_.lossStart)) {
      fault.drop = true;
      ++stats_.rxDropped;
      burst = plan_.lossBurstLen > 1.0;
    }
  }
  if (plan_.rssiJitterDb > 0.0) {
    fault.rssiOffsetDb = rng_.nextGaussian(0.0, plan_.rssiJitterDb);
  }
  return fault;
}

std::unique_ptr<LinkChaos> installFaultPlan(sim::World& world,
                                            const FaultPlan* plan) {
  if (!plan) return nullptr;
  return std::make_unique<LinkChaos>(world, *plan);
}

}  // namespace kalis::chaos
