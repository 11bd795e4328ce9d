// Traffic Statistics Collection sensing module (paper §V).
//
// Maintains packets-per-unit-of-time for every traffic type — globally and
// per monitored device — over a configurable unit (paper default: 5 s), and
// publishes them, each time they change, as multilevel knowggets:
//
//   TrafficFrequency.TCPSYN          = 0.037      (global rate, pkts/s)
//   TrafficFrequency.TCPSYN@0x0005   = 0.2        (per-device rate)
//
// It also publishes protocol-presence knowggets (Protocols.TCP = true, ...)
// which drive the activation of protocol-specific detection modules.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"
#include "util/sliding_window.hpp"

namespace kalis::ids {

class TrafficStatsModule final : public SensingModule {
 public:
  TrafficStatsModule();

  std::string name() const override { return "TrafficStatsModule"; }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  /// Programmatic access for tests and anomaly modules.
  double globalRate(net::PacketType type, SimTime now);

  std::uint32_t workUnitsPerPacket() const override { return 1; }
  std::size_t memoryBytes() const override;

 private:
  /// Protocol families with a presence knowgget (Protocols.<name>).
  enum Protocol : std::uint8_t {
    kTcp, kUdp, kIcmp, kCtp, kZigbee, kRpl, kWifi, kBle, kNoProtocol
  };
  static constexpr const char* kProtocolNames[kNoProtocol] = {
      "TCP", "UDP", "ICMP", "CTP", "ZigBee", "RPL", "WiFi", "BLE"};
  static Protocol protocolOf(const net::Dissection& dis);

  /// A rate counter and the last rate onTick put for it (0 before the
  /// first put: only positive rates are put).
  struct RateCounter {
    explicit RateCounter(Duration window) : counter(window) {}
    SlidingCounter counter;
    double lastPut = 0.0;
  };
  /// Puts the counter's rate under `label` (and `entity`) unless it is zero
  /// or the rate last put for it.
  static void publishRate(RateCounter& rc, const std::string& label,
                          const std::string& entity, ModuleContext& ctx);

  Duration window_ = seconds(5);
  std::array<std::unique_ptr<RateCounter>, net::kNumPacketTypes> global_;
  // Per-device counters: one entity-keyed map per traffic type, created on
  // demand. Iterating type-major then label-ascending reproduces the old
  // std::map<std::pair<int, std::string>, ...> publication order exactly.
  std::array<EntityKeyedMap<RateCounter>, net::kNumPacketTypes> perDevice_;
  std::array<bool, kNoProtocol> protocolsSeen_{};
};

}  // namespace kalis::ids
