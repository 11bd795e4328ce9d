// Device Classifier sensing module.
//
// Infers each monitored entity's role in the attack-pattern taxonomy
// (Table I: Internet service / hub / sub / router) from its traffic shape:
//  - WiFi beacon senders whose BSSID equals their own address are routers;
//  - WPAN entities issuing commands to several peers, or acting as the CTP
//    root, are hubs;
//  - WPAN entities that only report/forward are subs.
//
// Publishes Role@<entity> = hub|sub|router. Downstream consumers: the
// taxonomy consistency bench and the smart-firewall policy examples.
#pragma once

#include <set>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"

namespace kalis::ids {

class DeviceClassifierModule final : public SensingModule {
 public:
  std::string name() const override { return "DeviceClassifierModule"; }

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::size_t memoryBytes() const override {
    return sizeof(*this) + state_.entryOverheadBytes();
  }

 private:
  enum class Role : std::uint8_t { kUnknown, kRouter, kHub, kSub };
  static const char* roleName(Role role);

  struct EntityState {
    std::set<net::EntityRef> commandTargets;
    bool isCtpRoot = false;
    bool isApBeaconer = false;
    bool sendsReports = false;
    Role publishedRole = Role::kUnknown;
  };
  EntityKeyedMap<EntityState> state_;  ///< by link-layer sender
};

}  // namespace kalis::ids
