// Sinkhole attack detection: a node lures traffic by advertising an
// implausibly good route (CTP ETX ~0 without being the root, or an RPL rank
// below/at the root's). Fig. 3 circles this attack too — the technique is
// tied to the routing protocol in use and only makes sense on multi-hop
// networks.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"

namespace kalis::ids {

class SinkholeModule final : public DetectionModule {
 public:
  std::string name() const override { return "SinkholeModule"; }
  AttackType attack() const override { return AttackType::kSinkhole; }

  bool required(const KnowledgeBase& kb) const override {
    if (!kb.local<bool>(labels::kMultihopWpan).value_or(false)) return false;
    return kb.local<bool>("Protocols.CTP").value_or(false) ||
           kb.local<bool>("Protocols.RPL").value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Multihop*", "Protocols.CTP", "Protocols.RPL"};
  }

  void configure(const std::map<std::string, std::string>& params) override;
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override {
    return sizeof(*this) + alertStateBytes() +
           lastEtx_.size() * (sizeof(net::EntityRef) + 16);
  }

 private:
  std::uint16_t suddenDrop_ = 30;   ///< ETX improvement that is implausible
  std::uint16_t rootRank_ = 256;    ///< RPL: minimum legitimate non-root rank
  Duration cooldown_ = seconds(10);
  /// Last advertised ETX, by advertising entity.
  std::unordered_map<net::EntityRef, std::uint16_t> lastEtx_;
  KnowggetEntityCache ctpRoot_{labels::kCtpRoot};
};

}  // namespace kalis::ids
