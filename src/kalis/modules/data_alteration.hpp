// Data alteration detection module.
//
// Watchdog technique: compare a relay's retransmission against the copy we
// overheard being handed to it; a payload mismatch is tampering. Fig. 3
// marks this attack impossible when cryptographic integrity protection is
// deployed — so the module deactivates when the Knowledge Base reports
// link-layer encryption on the monitored WPAN.
#pragma once

#include <map>
#include <string>

#include "kalis/module.hpp"
#include "kalis/modules/forwarding_watchdog.hpp"

namespace kalis::ids {

class DataAlterationModule final : public DetectionModule {
 public:
  std::string name() const override { return "DataAlterationModule"; }
  AttackType attack() const override { return AttackType::kDataAlteration; }

  bool required(const KnowledgeBase& kb) const override {
    if (!kb.local<bool>(labels::kMultihopWpan).value_or(false)) return false;
    // Crypto rules the attack out entirely.
    if (kb.local<bool>(std::string(labels::kLinkEncryption) + ".P802154")
            .value_or(false)) {
      return false;
    }
    return true;
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Multihop*", "LinkEncryption*"};
  }

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 3; }
  std::size_t memoryBytes() const override {
    return sizeof(*this) + watchdog_.memoryBytes() + alertStateBytes();
  }

 private:
  Duration cooldown_ = seconds(15);
  ForwardingWatchdog watchdog_;
  KnowggetEntityCache ctpRoot_{labels::kCtpRoot};
};

}  // namespace kalis::ids
