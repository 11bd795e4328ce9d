// ICMP Flood detection module (paper §III-A1, §VI-B1).
//
// Symptom: an unusually high rate of ICMP Echo Replies converging on one
// victim from many claimed sources. Indistinguishable, to a passive
// observer, from a Smurf attack — *unless* the network is known to be
// single-hop, in which case Smurf is impossible (the paper's flagship
// example of knowledge-driven disambiguation).
//
// Classification logic:
//  - Multihop(medium) == false  -> ICMP Flood, confidently.
//  - Multihop(medium) == true   -> only ICMP Flood if no spoofed Echo
//    Requests with the victim's source were observed (those mean Smurf).
//  - knowledge unavailable (the traditional-IDS baseline) -> alert on the
//    raw symptom, accepting the ambiguity.
//
// Suspects: the physical transmitter behind the forged identities — the
// dominant link-layer source, cross-checked by the RSSI spread being small
// (one radio), the "approximate disambiguation through signal strength
// comparison" of §VI-B1.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "kalis/module.hpp"
#include "kalis/modules/flood_common.hpp"

namespace kalis::ids {

class IcmpFloodModule final : public DetectionModule {
 public:
  std::string name() const override { return "IcmpFloodModule"; }
  AttackType attack() const override { return AttackType::kIcmpFlood; }

  bool required(const KnowledgeBase& kb) const override;
  std::vector<std::string> watchedLabels() const override {
    return {"Protocols.ICMP"};
  }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  double detectionThresh_ = 10.0;  ///< echo replies/s at one victim
  std::size_t minSources_ = 3;     ///< distinct claimed senders
  Duration window_ = seconds(5);
  Duration cooldown_ = seconds(10);

  EntityKeyedMap<VictimEventLog> replyLog_;  ///< by victim
  std::unordered_map<net::EntityRef, SimTime> spoofedRequests_;  ///< victim
  std::unordered_map<net::EntityRef, net::EntityRef>
      identityBinding_;  ///< net src -> link src
  std::vector<net::EntityRef> seenSources_;  ///< tick scratch
};

}  // namespace kalis::ids
