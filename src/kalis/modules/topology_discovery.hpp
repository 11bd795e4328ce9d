// Topology Discovery sensing module (paper §IV-B4, §V).
//
// Differentiates multi-hop from single-hop networks per medium by analyzing
// captured traffic:
//  - CTP data with THL >= 1 has demonstrably been forwarded;
//  - CTP routing beacons advertising a parent with cost beyond one hop;
//  - ZigBee NWK frames whose link-layer sender differs from the NWK source
//    (a relay in action), or whose radius has been decremented;
//  - RPL DIOs advertising rank beyond the root's;
//  - the same (origin, seqno) observed from two different link senders.
//
// After `settlePackets` frames on a medium with no such evidence, the module
// commits Multihop.<medium>=false — negative knowledge is what lets Kalis
// rule out attacks like Smurf on single-hop networks.
//
// Also published: Multihop (global OR), MonitoredNodes, CtpRoot.
#pragma once

#include <map>
#include <string>
#include <unordered_set>

#include "kalis/module.hpp"

namespace kalis::ids {

class TopologyDiscoveryModule final : public SensingModule {
 public:
  std::string name() const override { return "TopologyDiscoveryModule"; }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  void noteMultihop(net::Medium medium, ModuleContext& ctx);
  void maybeSettle(net::Medium medium, ModuleContext& ctx);
  void publishGlobal(ModuleContext& ctx);
  static const char* mediumLabel(net::Medium medium);

  // Evidence bookkeeping per medium (index = Medium).
  struct MediumState {
    std::uint64_t packets = 0;
    bool multihop = false;
    bool settled = false;  ///< a Multihop.<medium> knowgget has been written
  };
  MediumState medium_[3];

  std::unordered_set<net::EntityRef> entities_;  ///< distinct link srcs
  /// (origin, seq) -> the link sender it was first heard from.
  std::map<std::uint32_t, net::EntityRef> originSender_;
  bool ctpRootPublished_ = false;
  std::uint64_t settlePackets_ = 30;
};

}  // namespace kalis::ids
