#include "kalis/modules/device_classifier.hpp"

#include "net/zigbee.hpp"

namespace kalis::ids {

const char* DeviceClassifierModule::roleName(Role role) {
  switch (role) {
    case Role::kRouter: return "router";
    case Role::kHub: return "hub";
    case Role::kSub: return "sub";
    case Role::kUnknown: break;
  }
  return "";
}

void DeviceClassifierModule::onPacket(const net::CapturedPacket& pkt,
                                      const net::Dissection& dis,
                                      ModuleContext& ctx) {
  (void)pkt;
  (void)ctx;
  const net::EntityRef sender = dis.linkSourceRef();
  if (!sender.valid()) return;
  EntityState& s = state_.tryEmplace(sender).first->value;

  if (dis.wifi && dis.wifi->kind == net::WifiFrameKind::kBeacon &&
      dis.wifi->src == dis.wifi->bssid) {
    s.isApBeaconer = true;
  }
  if (dis.ctpBeacon && dis.ctpBeacon->etx == 0) s.isCtpRoot = true;

  if (dis.zigbee && net::EntityRef::of(dis.zigbee->src) == sender &&
      !dis.zigbee->payload.empty()) {
    const std::uint8_t tag = dis.zigbee->payload[0];
    if (tag == net::kZigbeeAppCommand) {
      s.commandTargets.insert(net::EntityRef::of(dis.zigbee->dst));
    } else if (tag == net::kZigbeeAppReport) {
      s.sendsReports = true;
    }
  }
}

void DeviceClassifierModule::onTick(ModuleContext& ctx) {
  state_.forEachOrdered([&](EntityKeyedMap<EntityState>::Entry& entry) {
    EntityState& s = entry.value;
    Role role = Role::kUnknown;
    if (s.isApBeaconer) {
      role = Role::kRouter;
    } else if (s.isCtpRoot || s.commandTargets.size() >= 2) {
      role = Role::kHub;
    } else if (s.sendsReports || !s.commandTargets.empty()) {
      role = Role::kSub;
    }
    if (role != Role::kUnknown && role != s.publishedRole) {
      s.publishedRole = role;
      ctx.kb.put(labels::kRole, roleName(role), entry.label);
    }
  });
}

}  // namespace kalis::ids
