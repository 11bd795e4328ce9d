// The simulated IoT world: nodes with radios, the shared wireless media,
// frame delivery with RSSI thresholds, promiscuous sniffers, mobility and
// revocation (the countermeasure the evaluation uses).
//
// This substitutes the paper's physical testbed. Kalis only ever interacts
// with it through sniffer callbacks that deliver CapturedPacket — the same
// interface a real promiscuous radio would provide.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/mobility.hpp"
#include "sim/propagation.hpp"
#include "sim/simulator.hpp"
#include "sim/vec.hpp"
#include "util/types.hpp"

namespace kalis::sim {

enum class NodeRole : std::uint8_t {
  kHub,
  kSub,
  kRouter,
  kInternetHost,
  kIdsBox,
  kGeneric,
};

const char* roleName(NodeRole r);

struct RadioConfig {
  double txPowerDbm = 0.0;
  double sensitivityDbm = -90.0;
  int channel = 0;
};

class World;

/// The face of the World a behavior sees: identity, addressing, clock,
/// randomness, and the transmit primitive.
class NodeHandle {
 public:
  NodeId id() const { return id_; }
  const std::string& name() const;
  net::Mac16 mac16() const;
  net::Mac48 mac48() const;
  net::Ipv4Addr ipv4() const;
  net::Ipv6Addr ipv6() const;
  SimTime now() const;
  Rng& rng();
  Vec2 position() const;
  void send(net::Medium medium, Bytes frame);
  World& world() { return *world_; }

 private:
  friend class World;
  NodeHandle(World* world, NodeId id) : world_(world), id_(id) {}
  World* world_;
  NodeId id_;
};

/// Application/protocol logic attached to a node. Receives only frames the
/// node's radio would accept (addressed to it or broadcast); promiscuous
/// visibility is reserved for sniffers.
class Behavior {
 public:
  virtual ~Behavior() = default;
  virtual void start(NodeHandle& /*node*/) {}
  virtual void onFrame(NodeHandle& /*node*/, const net::CapturedPacket& /*pkt*/,
                       const net::Dissection& /*dissection*/) {}
};

/// Promiscuous capture callback. The Dissection is produced exactly once per
/// transmission and shared by every sniffer and behavior; its views alias
/// the CapturedPacket passed alongside it and are valid only for the
/// duration of the call (copy with toBytes()/the packet itself to retain).
using SnifferCallback =
    std::function<void(const net::CapturedPacket&, const net::Dissection&)>;

/// Chaos seam (src/chaos): consulted once per transmission and once per
/// candidate receiver. A default-constructed fault (no drop, no duplicate,
/// no delay, no corruption, zero RSSI offset) MUST leave the world's event
/// schedule and RNG draws untouched, so an installed injector whose plan is
/// all-zero reproduces the uninstrumented run byte-for-byte.
class LinkFaultInjector {
 public:
  virtual ~LinkFaultInjector() = default;

  /// Per-transmission decision, taken before the frame goes on the air.
  struct TxFault {
    bool drop = false;            ///< frame never delivered to anyone
    unsigned duplicates = 0;      ///< extra back-to-back deliveries
    Duration extraDelay = 0;      ///< reordering: shift past later frames
    std::optional<Bytes> corrupted;  ///< replacement (bit-flipped) payload
  };

  /// Per-receiver decision, taken after propagation but before the
  /// sensitivity threshold (a negative offset can push a frame below it).
  struct RxFault {
    bool drop = false;        ///< burst loss on this directed link
    double rssiOffsetDb = 0;  ///< jitter added to the computed RSSI
  };

  virtual TxFault onTransmit(NodeId from, net::Medium medium,
                             const Bytes& frame, SimTime now) = 0;
  virtual RxFault onReceive(NodeId from, NodeId to, net::Medium medium,
                            SimTime now) = 0;
};

class World {
 public:
  explicit World(Simulator& sim);

  // --- construction ---------------------------------------------------------
  NodeId addNode(std::string name, NodeRole role, Vec2 pos);
  void enableRadio(NodeId id, net::Medium medium,
                   std::optional<RadioConfig> config = std::nullopt);
  void setBehavior(NodeId id, std::unique_ptr<Behavior> behavior);
  /// Registers promiscuous capture on one medium of one node (the IDS box).
  void addSniffer(NodeId id, net::Medium medium, SnifferCallback cb);
  void setMobility(NodeId id, std::unique_ptr<MobilityModel> model);

  // --- addressing -----------------------------------------------------------
  // Defaults are derived from the NodeId; setMac16 lets an attack scenario
  // clone a legitimate identity (replication attack).
  net::Mac16 mac16Of(NodeId id) const;
  void setMac16(NodeId id, net::Mac16 mac);
  net::Mac48 mac48Of(NodeId id) const;
  net::Ipv4Addr ipv4Of(NodeId id) const;
  net::Ipv6Addr ipv6Of(NodeId id) const;
  /// First node (lowest id) currently holding this short address.
  std::optional<NodeId> nodeByMac16(net::Mac16 mac) const;

  // --- runtime --------------------------------------------------------------
  /// Starts behaviors and the mobility tick. Call once, before running the
  /// simulator.
  void start();
  void send(NodeId from, net::Medium medium, Bytes frame);
  /// Countermeasure: drop a node from the network for `period` (its radios
  /// neither transmit nor receive).
  void revoke(NodeId id, Duration period);
  bool isRevoked(NodeId id) const;

  /// Fault injection (crash/restart): the node is offline for `period` —
  /// distinct from revocation so countermeasure bookkeeping stays clean.
  void setDownFor(NodeId id, Duration period);
  bool isDown(NodeId id) const;

  /// Installs (or clears, with nullptr) the fault-injection seam. Non-owning;
  /// the injector must outlive every subsequent Simulator::run* call.
  void setFaultInjector(LinkFaultInjector* injector) { faults_ = injector; }
  LinkFaultInjector* faultInjector() const { return faults_; }

  // --- queries --------------------------------------------------------------
  Simulator& sim() { return sim_; }
  std::size_t nodeCount() const { return nodes_.size(); }
  const std::string& nameOf(NodeId id) const;
  NodeRole roleOf(NodeId id) const;
  Vec2 positionOf(NodeId id) const;
  PropagationModel& propagation(net::Medium medium);
  NodeHandle handle(NodeId id) { return NodeHandle(this, id); }

 private:
  struct RadioState {
    bool enabled = false;
    RadioConfig config;
  };
  struct SnifferState {
    SnifferCallback callback;
    std::uint64_t captureSeq = 0;
  };
  struct NodeState {
    std::string name;
    NodeRole role = NodeRole::kGeneric;
    Vec2 position;
    net::Mac16 mac16{0};
    std::array<RadioState, 3> radios;                      // by Medium
    std::array<std::vector<SnifferState>, 3> sniffers;     // by Medium
    std::unique_ptr<Behavior> behavior;
    std::unique_ptr<MobilityModel> mobility;
    SimTime revokedUntil = 0;
    SimTime downUntil = 0;  ///< injected crash (setDownFor), not revocation
  };

  /// How often mobile node positions are re-sampled.
  static constexpr Duration kMobilityTick = milliseconds(200);

  static std::size_t mindex(net::Medium m) { return static_cast<std::size_t>(m); }
  void deliver(NodeId from, net::Medium medium, const Bytes& frame);
  void mobilityTickFn();

  Simulator& sim_;
  std::vector<NodeState> nodes_;
  std::array<PropagationModel, 3> propagation_;
  bool started_ = false;
  Rng fadingRng_;
  LinkFaultInjector* faults_ = nullptr;
};

/// Transmission time of a frame on a medium (used for the send->delivery
/// latency; propagation delay is negligible at IoT ranges).
Duration txDuration(net::Medium medium, std::size_t frameBytes);

}  // namespace kalis::sim
