// In-network attacks mounted by compromised relays: selective forwarding and
// blackhole (a CTP policy) and the colluding wormhole (ZigBee relay policy
// pair). Installed via the agents' policy hooks, so the attacking node
// otherwise behaves protocol-correctly — exactly the stealth that makes
// these attacks need watchdog-style detection.
#pragma once

#include <memory>
#include <string>

#include "metrics/ground_truth.hpp"
#include "sim/ctp_agent.hpp"
#include "sim/zigbee_agent.hpp"

namespace kalis::attacks {

/// Drops each forwarded CTP packet with probability `dropProb` (1.0 = pure
/// blackhole). Every drop is one ground-truth symptom instance.
class SelectiveForwardPolicy final : public sim::CtpAgent::ForwardPolicy {
 public:
  SelectiveForwardPolicy(double dropProb, ids::AttackType truthType,
                         metrics::GroundTruth* truth,
                         std::size_t maxInstances = 50)
      : dropProb_(dropProb),
        truthType_(truthType),
        truth_(truth),
        maxInstances_(maxInstances) {}

  bool shouldForward(sim::NodeHandle& node,
                     const net::CtpDataView& data) override;

  std::uint64_t drops() const { return drops_; }

 private:
  double dropProb_;
  ids::AttackType truthType_;
  metrics::GroundTruth* truth_;
  std::size_t maxInstances_;
  std::uint64_t drops_ = 0;
};

/// One endpoint of a ZigBee wormhole: instead of relaying, tunnels the NWK
/// frame out-of-band to the colluding peer, which re-transmits it in its own
/// network portion. Install on B1 with `peer` = B2 (and optionally
/// vice versa).
class WormholeRelayPolicy final : public sim::ZigbeeAgent::RelayPolicy {
 public:
  struct Config {
    sim::World* world = nullptr;
    NodeId peer = kInvalidNode;        ///< the colluder that re-injects
    Duration tunnelLatency = milliseconds(2);
    metrics::GroundTruth* truth = nullptr;
    std::size_t maxInstances = 50;
  };

  explicit WormholeRelayPolicy(Config config) : config_(config) {}

  bool shouldRelay(sim::NodeHandle& node,
                   const net::ZigbeeNwkFrameView& nwk) override;

  std::uint64_t tunneled() const { return tunneled_; }

 private:
  Config config_;
  std::uint64_t tunneled_ = 0;
  std::uint8_t linkSeq_ = 0x80;
};

}  // namespace kalis::attacks
