// Smurf attack detection module (paper §III-A1).
//
// In a Smurf attack the attacker sends ICMP Echo Requests to the victim's
// neighbors with the victim's identity as source; the neighbors' replies
// converge on the victim. The observable symptom (a storm of Echo Replies at
// the victim) is identical to an ICMP flood — but the attack requires a
// multi-hop network, so Kalis only activates this module when the Knowledge
// Base says Multihop == true.
//
// Detection: the reply storm plus direct evidence of the trigger — Echo
// Requests claiming the victim's source but transmitted by a different
// radio. Suspects are those spoofing transmitters.
//
// Fallback without knowledge (the traditional-IDS baseline): the module
// alerts on the bare reply-storm symptom, and, lacking the trigger evidence,
// names as suspects the nodes two hops away from the victim in its observed
// adjacency — which, on a single-hop network, degenerates to the victim
// itself (the countermeasure disaster reported in §VI-B1).
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "kalis/module.hpp"
#include "kalis/modules/flood_common.hpp"

namespace kalis::ids {

class SmurfModule final : public DetectionModule {
 public:
  std::string name() const override { return "SmurfModule"; }
  AttackType attack() const override { return AttackType::kSmurf; }

  bool required(const KnowledgeBase& kb) const override;
  std::vector<std::string> watchedLabels() const override {
    return {"Protocols.ICMP", "Multihop*"};
  }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  /// Suspect fallback used without trigger evidence: entities exactly two
  /// hops from the victim in the observed communication graph. Exposed for
  /// tests (it is the mechanism behind the paper's revoke-the-victim story).
  std::vector<std::string> twoHopSuspects(const std::string& victim) const;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  std::vector<std::string> twoHopSuspects(const net::EntityRef& victim,
                                          const std::string& victimLabel) const;

  double detectionThresh_ = 10.0;
  std::size_t minSources_ = 3;
  Duration window_ = seconds(5);
  Duration cooldown_ = seconds(10);

  EntityKeyedMap<VictimEventLog> replyLog_;  ///< by victim (net addr)
  struct SpoofEvidence {
    SimTime lastSeen = 0;
    std::set<net::EntityRef> spoofers;  ///< link srcs in victim's name
  };
  std::unordered_map<net::EntityRef, SpoofEvidence> spoofed_;  ///< by victim
  std::unordered_map<net::EntityRef, net::EntityRef> identityBinding_;
  // Observed adjacency over network addresses (for the fallback suspects).
  std::map<net::EntityRef, std::set<net::EntityRef>> adjacency_;
  std::vector<net::EntityRef> seenSources_;  ///< tick scratch
};

}  // namespace kalis::ids
