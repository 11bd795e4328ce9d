// KalisNode: one deployed Kalis IDS box — the composition of the
// architecture in Fig. 4: Communication System (sniffer attachments or
// direct feed), Data Store, Knowledge Base with collective-knowledge
// management, Module Manager with the module library, and the alert/
// countermeasure fan-out.
//
// The same class also emulates the evaluation's "traditional IDS" baseline
// (emulateTraditionalIds(): all modules always active, Knowledge Base
// frozen), guaranteeing the paper's "total fairness with respect to the
// detection techniques".
//
// Shard-confinement contract (DESIGN.md §7): a KalisNode and everything it
// owns (Knowledge Base, Data Store, Module Manager, modules) belong to
// exactly one thread for their whole lifetime. kalis::pipeline honors this
// by constructing each shard's node on its worker thread; debug builds
// enforce it with thread-ownership checks in KnowledgeBase and DataStore.
// Collective-knowledge peers must live on the same thread and simulator.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kalis/config.hpp"
#include "kalis/data_store.hpp"
#include "kalis/knowledge.hpp"
#include "kalis/module_manager.hpp"
#include "kalis/module_registry.hpp"
#include "sim/world.hpp"

namespace kalis::ids {

class KalisNode {
 public:
  struct Options {
    std::string id = "K1";
    DataStore::Config dataStore{};
    Duration tickInterval = seconds(1);
    /// Latency of the encrypted one-way peer channels used for collective
    /// knowledge synchronization.
    Duration peerSyncLatency = milliseconds(10);
  };

  explicit KalisNode(sim::Simulator& sim);  ///< default options
  KalisNode(sim::Simulator& sim, Options options);
  ~KalisNode();

  KalisNode(const KalisNode&) = delete;
  KalisNode& operator=(const KalisNode&) = delete;

  const std::string& id() const { return options_.id; }
  KnowledgeBase& kb() { return kb_; }
  const KnowledgeBase& kb() const { return kb_; }
  ModuleManager& modules() { return manager_; }
  const ModuleManager& modules() const { return manager_; }
  DataStore& dataStore() { return dataStore_; }
  const DataStore& dataStore() const { return dataStore_; }
  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }

  // --- module library ---------------------------------------------------------
  void addModule(std::unique_ptr<Module> module);
  /// Instantiates from the global registry; returns false if unknown or
  /// already loaded.
  bool addModuleByName(const std::string& name,
                       const std::map<std::string, std::string>& params = {});
  /// Loads every module in the registry (the full standard library).
  void useStandardLibrary();
  /// Applies a parsed configuration file: loads/parameterizes the listed
  /// modules and inserts the a-priori knowggets.
  bool applyConfig(const KalisConfig& config);

  // --- baseline emulation ------------------------------------------------------
  /// Traditional IDS: every module permanently active, no Knowledge Base.
  void emulateTraditionalIds();

  // --- wiring ------------------------------------------------------------------
  /// Attaches promiscuous sniffers on the given media of a World node (the
  /// physical IDS box position matters: it hears what its radio hears).
  void attach(sim::World& world, NodeId nodeId,
              std::initializer_list<net::Medium> media);
  /// Direct packet feed with a shared Dissection, the zero-copy path (dis
  /// must alias pkt.raw; callers holding only the packet pass
  /// net::dissect(pkt)). The live path: sniffer attachments call it as the
  /// simulator delivers each frame.
  void feed(const net::CapturedPacket& pkt, const net::Dissection& dis);
  /// Replay feed: first advances this node's simulator clock to the packet's
  /// capture timestamp — firing pending ticks exactly as live operation
  /// would — then dissects it once and feeds it. Recorded traffic (a
  /// trace::Trace from a simulator capture, a KTRC log or a pcap file) comes
  /// in by looping this over the trace in capture order; kalis::pipeline
  /// shard engines take the same step. Only meaningful when this node (and
  /// its peers, if any) are the sole users of the simulator.
  void replayFeed(const net::CapturedPacket& pkt);

  /// Starts the module manager and the periodic tick. Call once.
  void start();
  bool started() const { return started_; }

  // --- collective knowledge ------------------------------------------------------
  /// Models the outcome of the discovery-through-advertisement beaconing:
  /// both nodes add each other to their peer lists and begin synchronizing
  /// collective knowggets over one-way encrypted channels.
  static void discoverPeers(KalisNode& a, KalisNode& b);
  std::size_t peerCount() const { return peers_.size(); }
  std::uint64_t collectiveSent() const { return collectiveSent_; }
  std::uint64_t collectiveReceived() const { return collectiveReceived_; }

  // --- outputs -----------------------------------------------------------------
  const std::vector<Alert>& alerts() const { return manager_.alerts(); }
  void setAlertSink(std::function<void(const Alert&)> sink) {
    manager_.setAlertSink(std::move(sink));
  }

  /// RAM proxy: live bytes across KB, Data Store window and module state.
  std::size_t memoryBytes() const;

 private:
  /// CollectiveSink feeding the in-simulator one-way encrypted peer
  /// channels; registered with the KB once the first peer is discovered.
  struct PeerChannel final : CollectiveSink {
    explicit PeerChannel(KalisNode& n) : node(n) {}
    void onCollective(const Knowgget& k) override { node.sendToPeers(k); }
    KalisNode& node;
  };

  void tickLoop();
  void addPeer(KalisNode* peer);
  void sendToPeers(const Knowgget& k);
  void receiveCollective(const Knowgget& k);

  sim::Simulator& sim_;
  Options options_;
  KnowledgeBase kb_;
  DataStore dataStore_;
  ModuleManager manager_;
  PeerChannel peerChannel_{*this};
  std::vector<KalisNode*> peers_;
  bool started_ = false;
  bool traditional_ = false;
  std::uint64_t collectiveSent_ = 0;
  std::uint64_t collectiveReceived_ = 0;
  std::shared_ptr<bool> alive_;  ///< guards scheduled callbacks
};

}  // namespace kalis::ids
