// The smart-firewall deployment of paper §V: Kalis running *on* the router
// (OpenWRT-style), using its knowledge-driven alerts to filter suspicious
// incoming traffic from untrusted Internet sources before it reaches local
// IoT devices.
//
// A remote host floods the camera with SYNs through the router. Kalis (on
// the router) detects the SYN flood and installs a firewall drop for the
// offending source — the "Remote Denial of Thing" pattern of Table I,
// stopped at the gateway.
//
//   ./smart_firewall [seed]
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "kalis/kalis_node.hpp"
#include "scenarios/environments.hpp"
#include "util/strings.hpp"

using namespace kalis;

int main(int argc, char** argv) {
  const std::optional<long long> seedArg = argc > 1 ? parseInt(argv[1]) : 3;
  if (argc > 2 || !seedArg || *seedArg < 0) {
    std::fprintf(stderr,
                 "smart_firewall: bad argument '%s' (expected one seed, "
                 "an integer >= 0)\nusage: smart_firewall [seed]\n",
                 argv[argc - 1]);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(*seedArg);
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);

  // A malicious Internet host SYN-flooding the camera (remote DoT).
  const net::Ipv4Addr cameraIp = world.ipv4Of(home.camera);
  Rng attackRng(seed * 31 + 1);
  // The events it schedules refer to it rather than own it: a self-owning
  // function would keep itself alive and leak.
  std::function<void(int)> floodOnce;
  floodOnce = [&cloud, cameraIp, &attackRng, &floodOnce, &simulator](int i) {
    net::Ipv4Header ip;
    ip.src = net::Ipv4Addr{(203u << 24) | (0u << 16) | (113u << 8) |
                           static_cast<std::uint32_t>(1 + i % 20)};
    ip.dst = cameraIp;
    ip.protocol = net::IpProto::kTcp;
    net::TcpSegment syn;
    syn.srcPort = static_cast<std::uint16_t>(1024 + i);
    syn.dstPort = 554;
    syn.seq = static_cast<std::uint32_t>(attackRng.next());
    syn.flags.syn = true;
    cloud.sendToLocal(ip, syn.encode(ip.src, ip.dst));
    if (i < 2000) {
      simulator.schedule(milliseconds(12), [&floodOnce, i] { floodOnce(i + 1); });
    }
  };
  simulator.at(seconds(15), [&floodOnce] { floodOnce(0); });

  // Kalis on the router: sniffs the LAN radio AND drives the firewall.
  ids::KalisNode kalisBox(simulator, {.id = "KR1",
                                      .dataStore = {},
                                      .tickInterval = seconds(1),
                                      .peerSyncLatency = milliseconds(10)});
  kalisBox.useStandardLibrary();
  kalisBox.attach(world, home.router, {net::Medium::kWifi});
  // The router cannot overhear its own transmissions; the tap lets Kalis
  // inspect the inbound traffic it forwards (pre-firewall).
  home.routerAgent->setInboundTap(
      [&kalisBox](const net::CapturedPacket& pkt) {
        kalisBox.feed(pkt, net::dissect(pkt));
      });

  // Alert -> firewall rule: drop traffic from alerted link/network suspects.
  auto blocked = std::make_shared<std::set<std::string>>();
  kalisBox.setAlertSink([blocked](const ids::Alert& alert) {
    std::printf("ALERT  %s\n", ids::toString(alert).c_str());
    if (alert.type == ids::AttackType::kSynFlood) {
      // Block every half-open claimed source involved; in this deployment
      // the router can act on IP-level evidence directly.
      blocked->insert("flood:" + alert.victimEntity);
    }
  });
  home.routerAgent->setFirewall(
      [blocked](const net::Ipv4Header& ip, BytesView l4) {
        if (blocked->contains("flood:" + net::toString(ip.dst))) {
          // Flood mitigation engaged for this victim: drop unsolicited SYNs.
          std::optional<net::TcpSegmentView> tcp;
          if (net::decodeTcp(l4, tcp) && tcp->flags.isSynOnly()) return false;
        }
        return true;
      });

  world.start();
  kalisBox.start();
  simulator.runUntil(seconds(90));

  const auto& stats = home.routerAgent->stats();
  std::printf("\nRouter stats: %llu inbound injected, %llu blocked\n",
              static_cast<unsigned long long>(stats.inboundInjected),
              static_cast<unsigned long long>(stats.inboundBlocked));
  std::printf("Camera still completed %llu cloud sessions during the attack\n",
              static_cast<unsigned long long>(
                  home.cameraAgent->stats().sessionsCompleted));

  const bool mitigated = stats.inboundBlocked > 100 &&
                         home.cameraAgent->stats().sessionsCompleted > 0;
  std::printf("Smart firewall outcome: %s\n",
              mitigated ? "attack contained at the gateway" : "NOT contained");
  return mitigated ? 0 : 1;
}
