// Wormhole detection module — the collective-knowledge showcase (§VI-D).
//
// A wormhole pair (B1, B2) tunnels traffic out-of-band: B1 swallows frames
// (a blackhole symptom to the Kalis node watching it), B2 re-injects them in
// a different network portion (an unexplained traffic source to the Kalis
// node watching *it*). Neither view alone identifies the attack.
//
// Local sensing half: flag "unexplained relays" — a node transmitting NWK
// frames in the name of an origin that was never handed to it (no inbound
// copy overheard) and never heard directly. Their fingerprints are
// published as a collective knowgget (Wormhole.Unexplained@<entity>).
//
// Correlation half: match fingerprints across the Knowledge Base between
// Wormhole.Drops@B1 (published by the blackhole module, possibly on a peer
// node) and Wormhole.Unexplained@B2. An intersection is a wormhole with
// suspects {B1, B2}.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <unordered_set>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"

namespace kalis::ids {

class WormholeModule final : public DetectionModule {
 public:
  std::string name() const override { return "WormholeModule"; }
  AttackType attack() const override { return AttackType::kWormhole; }

  bool required(const KnowledgeBase& kb) const override {
    return kb.local<bool>(labels::kMultihopWpan).value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Multihop*", "Wormhole*"};
  }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 3; }
  std::size_t memoryBytes() const override;

 private:
  struct Injection {
    SimTime time;
    std::uint64_t fp;
  };
  /// A NWK unit (src, seq) handed to a link receiver.
  struct Inbound {
    std::uint16_t src;
    std::uint8_t seq;
    net::EntityRef receiver;
    bool operator==(const Inbound&) const = default;
  };
  struct InboundHash {
    std::size_t operator()(const Inbound& in) const {
      return std::hash<net::EntityRef>{}(in.receiver) ^
             (static_cast<std::size_t>(in.src) << 8 | in.seq);
    }
  };

  Duration window_ = seconds(30);
  Duration cooldown_ = seconds(20);
  std::size_t minMatches_ = 2;  ///< fingerprint overlaps needed for an alert

  std::unordered_set<net::EntityRef> directSenders_;  ///< heard first-hand
  std::deque<Inbound> inboundRecent_;  ///< oldest first, bounded
  std::unordered_set<Inbound, InboundHash> inboundSet_;
  EntityKeyedMap<std::deque<Injection>> unexplained_;  ///< by injector
};

}  // namespace kalis::ids
