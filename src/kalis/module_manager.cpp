#include "kalis/module_manager.hpp"

#include "util/log.hpp"

namespace kalis::ids {

ModuleManager::ModuleManager(KnowledgeBase& kb, DataStore& dataStore)
    : kb_(kb), dataStore_(dataStore) {}

ModuleManager::~ModuleManager() {
  for (auto& entry : entries_) {
    for (int id : entry.subscriptionIds) kb_.unsubscribe(id);
  }
}

ModuleContext ModuleManager::makeContext(SimTime now) {
  return ModuleContext{
      kb_, dataStore_, now, [this](Alert alert) {
        KALIS_INFO("manager", toString(alert));
        alertsRaised_.inc();
        if (currentStats_) currentStats_->alerts.inc();
        alerts_.push_back(alert);
        if (alertSink_) alertSink_(alerts_.back());
      }};
}

void ModuleManager::addModule(std::unique_ptr<Module> module) {
  entries_.push_back(Entry{std::move(module), false, {}, {}});
  if (started_) {
    Entry& entry = entries_.back();
    Module* raw = entry.module.get();
    for (const std::string& pattern : raw->watchedLabels()) {
      entry.subscriptionIds.push_back(kb_.subscribe(
          pattern, [this, raw](const Knowgget&) {
            for (auto& e : entries_) {
              if (e.module.get() == raw) evaluate(e, lastEventTime_);
            }
          }));
    }
    evaluate(entry, lastEventTime_);
  }
}

void ModuleManager::start(SimTime now) {
  started_ = true;
  lastEventTime_ = now;
  for (auto& entry : entries_) {
    Module* raw = entry.module.get();
    for (const std::string& pattern : raw->watchedLabels()) {
      entry.subscriptionIds.push_back(kb_.subscribe(
          pattern, [this, raw](const Knowgget&) {
            for (auto& e : entries_) {
              if (e.module.get() == raw) evaluate(e, lastEventTime_);
            }
          }));
    }
  }
  for (auto& entry : entries_) evaluate(entry, now);
}

void ModuleManager::evaluate(Entry& entry, SimTime now) {
  const bool wanted = allAlwaysActive_ || entry.module->required(kb_);
  if (wanted == entry.active) return;
  ModuleContext ctx = makeContext(now);
  entry.active = wanted;
  entry.stats.activationFlips.inc();
  ModuleStats* prev = currentStats_;
  currentStats_ = &entry.stats;
  if (wanted) {
    KALIS_DEBUG("manager", "activating " << entry.module->name());
    entry.module->onActivate(ctx);
  } else {
    KALIS_DEBUG("manager", "deactivating " << entry.module->name());
    entry.module->onDeactivate(ctx);
  }
  currentStats_ = prev;
  activeModules_.set(static_cast<double>(activeCount()));
}

void ModuleManager::onPacket(const net::CapturedPacket& pkt,
                             const net::Dissection& dis, SimTime now) {
  lastEventTime_ = now;
  dataStore_.onPacket(pkt);
  ++packetsProcessed_;
  // Wall-time one packet in kLatencySampleEvery; two steady_clock reads per
  // module per packet would dominate the cheap modules otherwise.
  const bool sampleLatency = (packetsProcessed_ % kLatencySampleEvery) == 0;
  if (dis.type == net::PacketType::kMalformed) ++malformedPackets_;
  ModuleContext ctx = makeContext(now);
  // A module's KB changes may activate or deactivate other modules during
  // this loop (state flips), but nothing adds or removes an entry, so the
  // references stay valid.
  for (auto& entry : entries_) {
    if (!entry.active) continue;
    ++moduleActivations_;
    const std::uint32_t units = entry.module->workUnitsPerPacket();
    totalWorkUnits_ += units;
    entry.stats.packets.inc();
    entry.stats.workUnits.inc(units);
    currentStats_ = &entry.stats;
    if (sampleLatency) {
      const std::uint64_t t0 = obs::nowNs();
      entry.module->onPacket(pkt, dis, ctx);
      entry.stats.onPacketNs.record(obs::nowNs() - t0);
    } else {
      entry.module->onPacket(pkt, dis, ctx);
    }
    currentStats_ = nullptr;
  }
}

void ModuleManager::tick(SimTime now) {
  lastEventTime_ = now;
  ticks_.inc();
  ModuleContext ctx = makeContext(now);
  for (auto& entry : entries_) {
    if (!entry.active) continue;
    currentStats_ = &entry.stats;
    entry.module->onTick(ctx);
    currentStats_ = nullptr;
  }
}

std::vector<std::string> ModuleManager::activeModuleNames() const {
  std::vector<std::string> names;
  for (const auto& entry : entries_) {
    if (entry.active) names.push_back(entry.module->name());
  }
  return names;
}

std::vector<std::string> ModuleManager::allModuleNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) names.push_back(entry.module->name());
  return names;
}

bool ModuleManager::isActive(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.module->name() == name) return entry.active;
  }
  return false;
}

Module* ModuleManager::find(const std::string& name) {
  for (auto& entry : entries_) {
    if (entry.module->name() == name) return entry.module.get();
  }
  return nullptr;
}

std::size_t ModuleManager::activeCount() const {
  std::size_t n = 0;
  for (const auto& entry : entries_) {
    if (entry.active) ++n;
  }
  return n;
}

std::size_t ModuleManager::moduleMemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& entry : entries_) {
    if (entry.active) bytes += entry.module->memoryBytes();
  }
  return bytes;
}

const ModuleManager::ModuleStats* ModuleManager::statsFor(
    const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.module->name() == name) return &entry.stats;
  }
  return nullptr;
}

void ModuleManager::collectMetrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".packets_routed", packetsProcessed_);
  reg.counter(prefix + ".malformed_packets", malformedPackets_);
  reg.counter(prefix + ".work_units", totalWorkUnits_);
  reg.counter(prefix + ".module_activations_seen", moduleActivations_);
  reg.counter(prefix + ".ticks", ticks_);
  reg.counter(prefix + ".alerts_raised", alertsRaised_);
  reg.gauge(prefix + ".active_modules", activeModules_);
  reg.gauge(prefix + ".module_memory_bytes",
            static_cast<double>(moduleMemoryBytes()),
            static_cast<double>(moduleMemoryBytes()));
  for (const auto& entry : entries_) {
    const std::string base = prefix + ".module." + entry.module->name();
    reg.counter(base + ".packets", entry.stats.packets);
    reg.counter(base + ".work_units", entry.stats.workUnits);
    reg.counter(base + ".alerts", entry.stats.alerts);
    reg.counter(base + ".activation_flips", entry.stats.activationFlips);
    reg.gauge(base + ".active", entry.active ? 1.0 : 0.0,
              entry.active ? 1.0 : 0.0);
    reg.histogram(base + ".on_packet_ns", entry.stats.onPacketNs);
  }
}

}  // namespace kalis::ids
