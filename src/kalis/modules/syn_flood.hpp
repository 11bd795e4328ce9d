// SYN flood detection module (the paper's "SYN flow" prototype module).
//
// Symptom: a burst of TCP SYNs at one victim from many sources that never
// complete the handshake. Benign clients ACK the SYN-ACK quickly, so the
// module tracks half-open ratios rather than raw SYN counts to stay quiet
// for chatty-but-honest devices.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"

namespace kalis::ids {

class SynFloodModule final : public DetectionModule {
 public:
  std::string name() const override { return "SynFloodModule"; }
  AttackType attack() const override { return AttackType::kSynFlood; }

  bool required(const KnowledgeBase& kb) const override {
    return kb.local<bool>("Protocols.TCP").value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Protocols.TCP"};
  }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  struct SynRecord {
    SimTime time;
    net::EntityRef claimedSrc;
    net::EntityRef linkSrc;
    std::uint32_t isn;       ///< initial sequence number of the SYN
    bool completed = false;  ///< a matching handshake ACK was seen
  };
  struct VictimState {
    std::deque<SynRecord> syns;
  };

  void evict(VictimState& state, SimTime now);

  double rateThresh_ = 15.0;        ///< half-open SYNs/s
  std::size_t minSources_ = 5;
  double halfOpenRatio_ = 0.7;
  Duration window_ = seconds(5);
  Duration cooldown_ = seconds(10);

  EntityKeyedMap<VictimState> victims_;  ///< by victim net addr
  std::vector<net::EntityRef> seenSources_;  ///< tick scratch
};

}  // namespace kalis::ids
