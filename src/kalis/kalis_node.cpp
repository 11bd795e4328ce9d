#include "kalis/kalis_node.hpp"

#include "util/log.hpp"

namespace kalis::ids {

KalisNode::KalisNode(sim::Simulator& sim) : KalisNode(sim, Options{}) {}

KalisNode::KalisNode(sim::Simulator& sim, Options options)
    : sim_(sim),
      options_(std::move(options)),
      kb_(options_.id),
      dataStore_(options_.dataStore),
      manager_(kb_, dataStore_),
      alive_(std::make_shared<bool>(true)) {
  kb_.setClock([this] { return sim_.now(); });
}

void KalisNode::sendToPeers(const Knowgget& k) {
  // Push the changed collective knowgget to every discovered peer over a
  // one-way channel with the configured latency.
  for (KalisNode* peer : peers_) {
    ++collectiveSent_;
    std::weak_ptr<bool> peerAlive = peer->alive_;
    sim_.schedule(options_.peerSyncLatency, [peer, peerAlive, k] {
      if (peerAlive.expired()) return;
      peer->receiveCollective(k);
    });
  }
}

KalisNode::~KalisNode() { *alive_ = false; }

void KalisNode::receiveCollective(const Knowgget& k) {
  ++collectiveReceived_;
  kb_.putRemote(k);
}

void KalisNode::addModule(std::unique_ptr<Module> module) {
  manager_.addModule(std::move(module));
}

bool KalisNode::addModuleByName(
    const std::string& name, const std::map<std::string, std::string>& params) {
  if (manager_.find(name) != nullptr) return false;
  auto module = ModuleRegistry::global().create(name);
  if (!module) {
    KALIS_WARN("kalis", "unknown module '" << name << "'");
    return false;
  }
  module->configure(params);
  manager_.addModule(std::move(module));
  return true;
}

void KalisNode::useStandardLibrary() {
  for (const std::string& name : ModuleRegistry::global().names()) {
    if (manager_.find(name) == nullptr) addModuleByName(name);
  }
}

bool KalisNode::applyConfig(const KalisConfig& config) {
  bool ok = true;
  for (const ModuleSpec& spec : config.modules) {
    if (Module* existing = manager_.find(spec.name)) {
      existing->configure(spec.params);
    } else {
      ok &= addModuleByName(spec.name, spec.params);
    }
  }
  for (const StaticKnowgget& k : config.knowggets) {
    kb_.put(k.label, k.value, k.entity);
  }
  return ok;
}

void KalisNode::emulateTraditionalIds() {
  traditional_ = true;
  manager_.setAllAlwaysActive(true);
  kb_.disableWrites();
}

void KalisNode::attach(sim::World& world, NodeId nodeId,
                       std::initializer_list<net::Medium> media) {
  for (net::Medium medium : media) {
    world.enableRadio(nodeId, medium);
    world.addSniffer(nodeId, medium,
                     [this](const net::CapturedPacket& pkt,
                            const net::Dissection& dis) { feed(pkt, dis); });
  }
}

void KalisNode::feed(const net::CapturedPacket& pkt, const net::Dissection& dis) {
  manager_.onPacket(pkt, dis,
                    pkt.meta.timestamp ? pkt.meta.timestamp : sim_.now());
}

void KalisNode::replayFeed(const net::CapturedPacket& pkt) {
  if (pkt.meta.timestamp > sim_.now()) sim_.runUntil(pkt.meta.timestamp);
  feed(pkt, net::dissect(pkt));
}

void KalisNode::start() {
  if (started_) return;
  started_ = true;
  manager_.start(sim_.now());
  tickLoop();
}

void KalisNode::tickLoop() {
  std::weak_ptr<bool> alive = alive_;
  sim_.schedule(options_.tickInterval, [this, alive] {
    if (alive.expired()) return;
    manager_.tick(sim_.now());
    tickLoop();
  });
}

void KalisNode::addPeer(KalisNode* peer) {
  for (KalisNode* existing : peers_) {
    if (existing == peer) return;
  }
  // Hook the peer channel into the CollectiveSink seam on first discovery;
  // a node with no peers never registers (and never pays the fan-out).
  if (peers_.empty()) kb_.addCollectiveSink(&peerChannel_);
  peers_.push_back(peer);
}

void KalisNode::discoverPeers(KalisNode& a, KalisNode& b) {
  a.addPeer(&b);
  b.addPeer(&a);
}

std::size_t KalisNode::memoryBytes() const {
  return kb_.memoryBytes() + dataStore_.memoryBytes() +
         manager_.moduleMemoryBytes();
}

}  // namespace kalis::ids
