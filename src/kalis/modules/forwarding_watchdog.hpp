// Promiscuous forwarding watchdog (Marti et al.-style watchdog mechanism,
// paper refs [13], [29]): by overhearing both the packet handed to a relay
// and the relay's retransmission, an external observer can tell whether a
// node forwards faithfully, drops, or alters traffic.
//
// Works for both WSN/CTP frames (forwarding expected toward the collection
// root, THL increments per hop) and ZigBee NWK frames (forwarding expected
// while the NWK destination differs from the link receiver, radius
// decrements per hop).
//
// Embedded privately by SelectiveForwarding / Blackhole / DataAlteration;
// each keeps its own instance — modules are independent by design, and the
// duplicated state is precisely the overhead Kalis's knowledge-driven module
// selection avoids paying when a technique is not needed.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "kalis/entity_map.hpp"
#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::ids {

class ForwardingWatchdog {
 public:
  struct Config {
    Duration timeout = milliseconds(500);  ///< grace to retransmit
    Duration window = seconds(30);         ///< verdict history retained
    std::size_t maxPending = 4096;
  };

  ForwardingWatchdog() : config_(Config{}) {}
  explicit ForwardingWatchdog(Config config) : config_(config) {}

  /// Feeds one overheard packet. `ctpRoot` is the collection root's link
  /// entity (forwarding is not expected of it); nullopt if unknown.
  void observe(const net::CapturedPacket& pkt, const net::Dissection& dis,
               const std::optional<net::EntityRef>& ctpRoot);

  /// Times out pending forwards, turning them into drop verdicts.
  void expire(SimTime now);

  // --- per-entity verdict queries (over the trailing window) -----------------
  std::size_t samples(const net::EntityRef& entity, SimTime now);
  double dropRatio(const net::EntityRef& entity, SimTime now);
  /// Fingerprints of recently dropped packets (for wormhole correlation).
  std::vector<std::uint64_t> droppedFingerprints(const net::EntityRef& entity,
                                                 SimTime now);
  /// All entities with at least one verdict in the window, in label order.
  std::vector<net::EntityRef> observedForwarders(SimTime now);

  struct AlterationEvent {
    net::EntityRef entity;
    SimTime time;
    net::EntityRef originEntity;
    std::uint64_t originalHash;
    std::uint64_t alteredHash;
  };
  /// Alteration events detected since the last drain.
  std::vector<AlterationEvent> drainAlterations();

  std::size_t memoryBytes() const;

  /// Stable fingerprint of a forwarded unit (used on both sides of a
  /// wormhole to match dropped vs re-injected traffic): FNV-1a over the
  /// source (big-endian), the sequence number and the payload.
  static std::uint64_t fingerprint(std::uint16_t src, std::uint8_t seq,
                                   BytesView payload);

 private:
  /// A forwarded unit: one (origin, seq) of one protocol.
  struct Unit {
    char protocol;  ///< 'C' (CTP) or 'Z' (ZigBee NWK)
    std::uint16_t origin;
    std::uint8_t seq;
    bool operator==(const Unit&) const = default;
  };
  /// Orders units like their string keys "C<origin>:<seq>" compare — the
  /// order in which expire() emits simultaneous drop verdicts, which reaches
  /// the Wormhole.Drops value.
  static bool labelOrder(const Unit& a, const Unit& b);

  struct Pending {
    Unit unit;
    SimTime seen;
    net::EntityRef forwarder;  ///< entity expected to retransmit
    std::uint64_t payloadHash;
    std::uint64_t fp;
    net::EntityRef originEntity;
  };
  struct Verdict {
    SimTime time;
    bool dropped;
    std::uint64_t fp;
  };

  void expect(const Pending& p);
  void resolve(const Unit& unit, const net::EntityRef& bySender,
               std::uint64_t newPayloadHash, SimTime now);
  void addVerdict(const net::EntityRef& entity, Verdict v);
  void evict(std::deque<Verdict>& verdicts, SimTime now) const;
  std::deque<Verdict>* verdictsOf(const net::EntityRef& entity, SimTime now);

  Config config_;
  std::vector<Pending> pending_;  ///< at most one per unit; few in flight
  std::vector<Pending> expired_;  ///< expire() scratch, reused
  EntityKeyedMap<std::deque<Verdict>> verdicts_;  ///< by forwarder
  std::vector<AlterationEvent> alterations_;
};

}  // namespace kalis::ids
