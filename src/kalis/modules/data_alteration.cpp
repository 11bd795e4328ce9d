#include "kalis/modules/data_alteration.hpp"

namespace kalis::ids {

void DataAlterationModule::onPacket(const net::CapturedPacket& pkt,
                                    const net::Dissection& dis,
                                    ModuleContext& ctx) {
  watchdog_.observe(pkt, dis, ctpRoot_.in(ctx.kb).entity());
  watchdog_.expire(ctx.now);
}

void DataAlterationModule::onTick(ModuleContext& ctx) {
  watchdog_.expire(ctx.now);
  for (const auto& event : watchdog_.drainAlterations()) {
    const std::string entity = event.entity.toString();
    if (!shouldAlert(entity, ctx.now, cooldown_)) continue;
    Alert alert;
    alert.type = AttackType::kDataAlteration;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = event.originEntity.toString();
    alert.suspectEntities.push_back(entity);
    alert.detail = "forwarded payload hash mismatch";
    ctx.raiseAlert(std::move(alert));
  }
}

}  // namespace kalis::ids
