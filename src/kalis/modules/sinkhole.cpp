#include "kalis/modules/sinkhole.hpp"

namespace kalis::ids {

void SinkholeModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("suddenDrop"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      suddenDrop_ = static_cast<std::uint16_t>(*v);
    }
  }
}

void SinkholeModule::onPacket(const net::CapturedPacket& pkt,
                              const net::Dissection& dis, ModuleContext& ctx) {
  (void)pkt;
  if (dis.ctpBeacon) {
    const net::EntityRef sender = dis.linkSourceRef();
    const std::uint16_t etx = dis.ctpBeacon->etx;
    const KnowggetEntityCache& root = ctpRoot_.in(ctx.kb);

    bool suspicious = false;
    std::string why;
    if (etx == 0 && !root.value().empty() && root.entity() != sender) {
      suspicious = true;
      why = "non-root advertising ETX 0";
    }
    auto [it, firstBeacon] = lastEtx_.try_emplace(sender, etx);
    if (!firstBeacon && it->second != 0xffff && etx != 0xffff &&
        it->second > etx && it->second - etx >= suddenDrop_) {
      suspicious = true;
      why = "ETX collapsed " + std::to_string(it->second) + " -> " +
            std::to_string(etx);
    }
    it->second = etx;

    if (suspicious && shouldAlert(sender.toString(), ctx.now, cooldown_)) {
      Alert alert;
      alert.type = AttackType::kSinkhole;
      alert.time = ctx.now;
      alert.moduleName = name();
      alert.suspectEntities.push_back(sender.toString());
      alert.detail = why;
      ctx.raiseAlert(std::move(alert));
    }
    return;
  }

  if (dis.rplDio) {
    const net::EntityRef sender = dis.linkSourceRef();
    // The DODAG root holds rank 256 (MinHopRankIncrease); any other node
    // advertising rank <= 256 is luring traffic.
    const std::optional<net::Mac16> root = dis.rplDio->dodagId.embeddedShort();
    const bool fromRoot = root && net::EntityRef::of(*root) == sender;
    if (dis.rplDio->rank <= rootRank_ && !fromRoot &&
        shouldAlert(sender.toString(), ctx.now, cooldown_)) {
      Alert alert;
      alert.type = AttackType::kSinkhole;
      alert.time = ctx.now;
      alert.moduleName = name();
      alert.suspectEntities.push_back(sender.toString());
      alert.detail =
          "non-root advertising RPL rank " + std::to_string(dis.rplDio->rank);
      ctx.raiseAlert(std::move(alert));
    }
  }
}

}  // namespace kalis::ids
