// WiFi / IP side of the simulated home: stations (smart devices' WiFi
// interfaces), the access-point router, and a model of the untrusted
// Internet behind it.
//
// Topology model: all local stations share one WiFi BSS (single-hop — the
// paper's §VI-B1 scenario is exactly this). Traffic to non-local addresses is
// accepted by the RouterAgent and handed to the InternetCloud; traffic from
// Internet hosts is injected back through the router, which stamps
// fromDS frames — and can run a firewall hook there (the paper's smart
// firewall deployment, §V).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/ieee80211.hpp"
#include "net/ipv4.hpp"
#include "net/transport.hpp"
#include "sim/world.hpp"

namespace kalis::sim {

class RouterAgent;

/// Builds a WiFi data frame carrying IPv4 and transmits it.
void sendIpv4OverWifi(NodeHandle& node, net::Mac48 dstMac, net::Mac48 bssid,
                      bool toDs, bool fromDs, const net::Ipv4Header& ip,
                      BytesView l4, std::uint16_t seqCtl);

/// The untrusted Internet: named hosts (cloud services, attackers) that
/// exchange IP packets with the local network exclusively through a router.
class InternetCloud {
 public:
  using ServiceHandler = std::function<void(
      const net::Ipv4Header& ip, const net::TcpSegment* tcp,
      const net::UdpDatagram* udp, const net::IcmpMessage* icmp)>;

  struct Host {
    std::string name;
    net::Ipv4Addr addr;
    ServiceHandler handler;  ///< invoked for packets addressed to this host
  };

  net::Ipv4Addr addHost(std::string name, ServiceHandler handler);
  void setRouter(RouterAgent* router, World* world, NodeId routerNode) {
    router_ = router;
    world_ = world;
    routerNode_ = routerNode;
  }

  /// Called by the router for every outbound packet.
  void deliverFromLocal(const net::Ipv4Header& ip, BytesView l4);

  /// Sends a packet from an Internet host into the local network (via the
  /// router, after the WAN latency). Used by host handlers and attack
  /// injectors ("Remote DoT" patterns).
  void sendToLocal(const net::Ipv4Header& ip, Bytes l4);

  const std::vector<Host>& hosts() const { return hosts_; }

 private:
  /// One-way latency between the local network and Internet hosts.
  static constexpr Duration kLatency = milliseconds(20);

  std::vector<Host> hosts_;
  RouterAgent* router_ = nullptr;
  World* world_ = nullptr;
  NodeId routerNode_ = kInvalidNode;
  std::uint8_t nextHostOctet_ = 1;
};

/// A simple TCP responder cloud service: completes handshakes and answers
/// request data with `responseBytes` of (optionally high-entropy) payload.
InternetCloud::ServiceHandler makeEchoService(InternetCloud& cloud,
                                              std::size_t responseBytes,
                                              bool encrypted,
                                              std::uint64_t seed);

/// The access point + gateway. Emits beacons; bridges local<->Internet.
class RouterAgent : public Behavior {
 public:
  struct Config {
    std::string ssid = "kalis-home";
    Duration beaconInterval = milliseconds(500);
    net::Ipv4Addr lanAddr{(10u << 24) | 254};  // 10.0.0.254
  };

  /// Return false to drop an inbound (Internet -> local) packet.
  using FirewallHook = std::function<bool(const net::Ipv4Header& ip,
                                          BytesView l4)>;

  RouterAgent(Config config, InternetCloud& cloud)
      : config_(std::move(config)), cloud_(cloud) {}

  void setFirewall(FirewallHook hook) { firewall_ = std::move(hook); }

  /// Monitoring tap: sees every inbound (Internet -> local) frame the router
  /// is about to emit, before the firewall verdict — this is how an IDS
  /// running *on* the router (the paper's smart-firewall deployment)
  /// observes traffic it forwards itself.
  using InboundTap = std::function<void(const net::CapturedPacket&)>;
  void setInboundTap(InboundTap tap) { tap_ = std::move(tap); }

  struct Stats {
    std::uint64_t beaconsSent = 0;
    std::uint64_t outboundForwarded = 0;
    std::uint64_t inboundInjected = 0;
    std::uint64_t inboundBlocked = 0;
  };
  const Stats& stats() const { return stats_; }

  void start(NodeHandle& node) override;
  void onFrame(NodeHandle& node, const net::CapturedPacket& pkt,
               const net::Dissection& dissection) override;

  /// Called by the InternetCloud to inject an inbound packet.
  void injectInbound(NodeHandle& node, const net::Ipv4Header& ip, BytesView l4);

 private:
  void beaconLoop(NodeHandle& node);
  bool isLocal(net::Ipv4Addr a) const {
    return (a.value >> 24) == 10;  // 10.0.0.0/8 is the LAN
  }

  Config config_;
  InternetCloud& cloud_;
  FirewallHook firewall_;
  InboundTap tap_;
  Stats stats_;
  std::uint16_t seqCtl_ = 0;
};

/// A WiFi smart device: answers pings and SYNs on open ports, and runs
/// periodic client sessions ("cloud sync") against Internet services.
class IpHostAgent : public Behavior {
 public:
  struct FlowSpec {
    net::Ipv4Addr dst;                ///< peer (usually an Internet service)
    std::uint16_t dstPort = 443;
    Duration interval = seconds(60);  ///< new session cadence
    std::size_t requestBytes = 200;
    std::size_t responseBytes = 600;
    bool encrypted = true;            ///< high-entropy payload (TLS-like)
  };

  struct Config {
    std::vector<std::uint16_t> openPorts;
    bool respondToPing = true;
    std::vector<FlowSpec> flows;
    net::Mac48 bssid{};
    Duration startJitterMax = seconds(5);
  };

  struct Stats {
    std::uint64_t sessionsStarted = 0;
    std::uint64_t sessionsCompleted = 0;
    std::uint64_t pingsAnswered = 0;
    std::uint64_t synAcksSent = 0;
    std::uint64_t dataSegmentsSent = 0;
  };

  explicit IpHostAgent(Config config) : config_(std::move(config)) {}
  const Stats& stats() const { return stats_; }

  void start(NodeHandle& node) override;
  void onFrame(NodeHandle& node, const net::CapturedPacket& pkt,
               const net::Dissection& dissection) override;

 private:
  struct ClientSession {
    net::Ipv4Addr peer;
    std::uint16_t peerPort = 0;
    std::uint32_t nextSeq = 0;
    const FlowSpec* spec = nullptr;
    enum class State { kSynSent, kEstablished, kFinSent } state = State::kSynSent;
  };

  void flowLoop(NodeHandle& node, std::size_t flowIndex);
  void transmitIp(NodeHandle& node, const net::Ipv4Header& ip, BytesView l4);
  Bytes makePayload(NodeHandle& node, std::size_t size, bool encrypted) const;

  Config config_;
  Stats stats_;
  std::map<std::uint16_t, ClientSession> sessions_;  ///< by local port
  std::uint16_t nextEphemeralPort_ = 40000;
  std::uint16_t ipIdent_ = 1;
  std::uint16_t seqCtl_ = 0;
};

/// Resolves the WiFi MAC for an IPv4 address: local devices map to their
/// node's MAC, everything else routes to `routerMac`.
net::Mac48 resolveWifiMac(World& world, net::Ipv4Addr dst, net::Mac48 routerMac);

}  // namespace kalis::sim
