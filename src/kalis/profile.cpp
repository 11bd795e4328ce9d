#include "kalis/profile.hpp"

#include <algorithm>
#include <sstream>

namespace kalis::ids {

namespace {

/// Labels of the feature knowggets frozen into the generated config.
constexpr const char* kFrozenLabels[] = {
    labels::kMultihop, labels::kMultihopWpan, labels::kMultihopWifi,
    labels::kMobility, labels::kCtpRoot, "Protocols.TCP", "Protocols.UDP",
    "Protocols.ICMP", "Protocols.CTP", "Protocols.RPL", "Protocols.ZigBee",
    "Protocols.WiFi", "Protocols.BLE", "LinkEncryption.P802154",
    "LinkEncryption.WiFi"};

}  // namespace

DeploymentProfile generateProfile(const KnowledgeBase& kb,
                                  const ModuleRegistry& registry) {
  DeploymentProfile profile;

  for (const std::string& name : registry.names()) {
    auto module = registry.create(name);
    if (!module) continue;
    if (module->isDetection() && module->required(kb)) {
      profile.modules.push_back(name);
      profile.estimatedFootprintBytes += module->memoryBytes();
      profile.config.modules.push_back(ModuleSpec{name, {}});
    } else {
      profile.excluded.push_back(name);
    }
  }

  // Freeze the learned features as a-priori knowggets: the constrained
  // deployment will not re-learn them.
  for (const char* label : kFrozenLabels) {
    for (const Knowgget& k : kb.byLabelPrefix(label)) {
      if (k.creator != kb.selfId()) continue;  // only our own knowledge
      profile.config.knowggets.push_back(
          StaticKnowgget{k.label, k.entity, k.value});
    }
  }
  // Deduplicate (byLabelPrefix can re-match children of frozen parents).
  auto& kws = profile.config.knowggets;
  std::sort(kws.begin(), kws.end(),
            [](const StaticKnowgget& a, const StaticKnowgget& b) {
              return std::tie(a.label, a.entity) < std::tie(b.label, b.entity);
            });
  kws.erase(std::unique(kws.begin(), kws.end(),
                        [](const StaticKnowgget& a, const StaticKnowgget& b) {
                          return a.label == b.label && a.entity == b.entity;
                        }),
            kws.end());
  return profile;
}

std::string formatBuildManifest(const DeploymentProfile& profile) {
  std::ostringstream oss;
  oss << "# Kalis constrained-deployment build manifest\n";
  oss << "# modules compiled in: " << profile.modules.size()
      << ", excluded: " << profile.excluded.size() << "\n";
  oss << "# estimated module state footprint: "
      << profile.estimatedFootprintBytes << " bytes\n";
  for (const std::string& name : profile.modules) {
    oss << "module " << name << "\n";
  }
  for (const std::string& name : profile.excluded) {
    oss << "# excluded " << name << "\n";
  }
  return oss.str();
}

}  // namespace kalis::ids
