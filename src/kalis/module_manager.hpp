// The Module Manager (paper §IV-B4): coordinates all modules, activating and
// deactivating them as the Knowledge Base changes, routing packet events to
// active modules, and collecting alerts.
//
// Dynamic configuration works through the KB's publish/subscribe mechanism:
// for every module, the manager subscribes to the module's watchedLabels();
// when a matching knowgget changes, it re-evaluates required() and flips the
// module's activation state if the answer changed.
//
// The "traditional IDS" baseline (§VI-B) is this same manager with
// setAllAlwaysActive(true): every module runs at all times and the KB is
// frozen, exactly the paper's emulation ("running our system without
// Knowledge Base, and with all the modules active at all times").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kalis/module.hpp"
#include "util/metrics.hpp"

namespace kalis::ids {

class ModuleManager {
 public:
  ModuleManager(KnowledgeBase& kb, DataStore& dataStore);
  ~ModuleManager();

  ModuleManager(const ModuleManager&) = delete;
  ModuleManager& operator=(const ModuleManager&) = delete;

  /// Adds a module to the library. Before start(), activation is deferred;
  /// afterwards the module is evaluated immediately.
  void addModule(std::unique_ptr<Module> module);

  /// Baseline emulation: all modules permanently active, required() ignored.
  void setAllAlwaysActive(bool on) { allAlwaysActive_ = on; }

  /// Evaluates initial activations and installs KB subscriptions.
  void start(SimTime now);
  bool started() const { return started_; }

  /// Routes a captured packet to every active module and charges the
  /// CPU-proxy work units. Consumes a Dissection produced upstream (capture
  /// path, replay feed, pipeline batch path) so each frame is dissected
  /// exactly once end-to-end; dis must alias pkt.raw.
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                SimTime now);

  /// Periodic tick forwarded to active modules.
  void tick(SimTime now);

  // --- alerts ---------------------------------------------------------------
  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Optional extra consumer (countermeasure engine, SIEM export, tests).
  void setAlertSink(std::function<void(const Alert&)> sink) {
    alertSink_ = std::move(sink);
  }

  // --- introspection ----------------------------------------------------------
  std::vector<std::string> activeModuleNames() const;
  std::vector<std::string> allModuleNames() const;
  bool isActive(const std::string& name) const;
  Module* find(const std::string& name);
  std::size_t moduleCount() const { return entries_.size(); }
  std::size_t activeCount() const;

  // --- resource accounting (CPU / RAM proxies) --------------------------------
  std::uint64_t totalWorkUnits() const { return totalWorkUnits_; }
  std::uint64_t packetsProcessed() const { return packetsProcessed_; }
  /// Packets whose dissection verdict was kMalformed (truncated/corrupted
  /// frames — e.g. chaos bit flips). They are still routed to modules, which
  /// must tolerate partial dissections; this tally sizes the corruption the
  /// node absorbed.
  std::uint64_t malformedPackets() const { return malformedPackets_; }
  /// Bytes of live module state across active modules.
  std::size_t moduleMemoryBytes() const;
  /// Cumulative integral of (active modules) over packets — a load measure.
  std::uint64_t moduleActivationsSeen() const { return moduleActivations_; }

  // --- observability (kalis::obs) --------------------------------------------

  /// Per-module instrumentation. The latency histogram is wall-time sampled
  /// (1 packet in kLatencySampleEvery) so the steady_clock reads stay off
  /// the common path.
  struct ModuleStats {
    obs::Counter packets;          ///< packets routed to this module
    obs::Counter workUnits;        ///< CPU-proxy units charged
    obs::Counter alerts;           ///< alerts raised by this module
    obs::Counter activationFlips;  ///< KB-driven (de)activations
    obs::Histogram onPacketNs;     ///< sampled onPacket wall time, ns
  };

  /// Every kLatencySampleEvery-th packet gets wall-timed per module.
  static constexpr std::uint64_t kLatencySampleEvery = 16;

  /// Stats for one module by name; nullptr if unknown.
  const ModuleStats* statsFor(const std::string& name) const;

  /// Appends all manager + per-module metrics under `prefix` ("kalis").
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  struct Entry {
    std::unique_ptr<Module> module;
    bool active = false;
    std::vector<int> subscriptionIds;
    ModuleStats stats;
  };

  void evaluate(Entry& entry, SimTime now);
  ModuleContext makeContext(SimTime now);

  KnowledgeBase& kb_;
  DataStore& dataStore_;
  std::vector<Entry> entries_;
  std::vector<Alert> alerts_;
  std::function<void(const Alert&)> alertSink_;
  bool allAlwaysActive_ = false;
  bool started_ = false;
  std::uint64_t totalWorkUnits_ = 0;
  std::uint64_t packetsProcessed_ = 0;
  std::uint64_t malformedPackets_ = 0;
  std::uint64_t moduleActivations_ = 0;
  SimTime lastEventTime_ = 0;
  obs::Counter ticks_;
  obs::Counter alertsRaised_;
  obs::Gauge activeModules_;
  /// Module currently dispatched to; alerts raised through the context are
  /// attributed to it. Entry addresses are stable during dispatch (modules
  /// are added before traffic flows; KB flips never grow the vector).
  ModuleStats* currentStats_ = nullptr;
};

}  // namespace kalis::ids
