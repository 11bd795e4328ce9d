#include "kalis/modules/traffic_stats.hpp"

namespace kalis::ids {

namespace {
/// "TrafficFrequency.<TYPE>" for every packet type, built once.
const std::array<std::string, net::kNumPacketTypes>& rateLabels() {
  static const auto names = [] {
    std::array<std::string, net::kNumPacketTypes> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::string(labels::kTrafficFrequency) + "." +
               net::packetTypeName(static_cast<net::PacketType>(i));
    }
    return out;
  }();
  return names;
}
}  // namespace

TrafficStatsModule::TrafficStatsModule() {
  for (auto& counter : global_) {
    counter = std::make_unique<SlidingCounter>(window_);
  }
}

void TrafficStatsModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("windowSeconds"); it != params.end()) {
    const auto v = parseDouble(it->second);
    const auto w = v && *v > 0 ? toDuration(*v, seconds(1)) : std::nullopt;
    if (w) {
      window_ = *w;
      for (auto& counter : global_) {
        counter = std::make_unique<SlidingCounter>(window_);
      }
      for (auto& m : perDevice_) m.clear();
    }
  }
}

TrafficStatsModule::Protocol TrafficStatsModule::protocolOf(
    const net::Dissection& dis) {
  using net::PacketType;
  switch (dis.type) {
    case PacketType::kTcpSyn:
    case PacketType::kTcpSynAck:
    case PacketType::kTcpAck:
    case PacketType::kTcpRst:
    case PacketType::kTcpFin:
    case PacketType::kTcpData:
      return kTcp;
    case PacketType::kUdp:
      return kUdp;
    case PacketType::kIcmpEchoReq:
    case PacketType::kIcmpEchoRep:
    case PacketType::kIcmpOther:
    case PacketType::kIcmpv6EchoReq:
    case PacketType::kIcmpv6EchoRep:
      return kIcmp;
    case PacketType::kCtpData:
    case PacketType::kCtpRouting:
      return kCtp;
    case PacketType::kZigbeeData:
    case PacketType::kZigbeeRouting:
      return kZigbee;
    case PacketType::kRplDio:
    case PacketType::kRplDao:
      return kRpl;
    case PacketType::kWifiBeacon:
    case PacketType::kWifiProbe:
    case PacketType::kWifiDeauth:
      return kWifi;
    case PacketType::kBleAdv:
    case PacketType::kBleScan:
      return kBle;
    default:
      return kNoProtocol;
  }
}

void TrafficStatsModule::onPacket(const net::CapturedPacket& pkt,
                                  const net::Dissection& dis,
                                  ModuleContext& ctx) {
  (void)pkt;
  lastNow_ = ctx.now;
  const auto typeIdx = static_cast<std::size_t>(dis.type);
  global_[typeIdx]->record(ctx.now);

  // Per-device accounting against the traffic's *target* — the entity a
  // DoS-style attack would be aimed at. Allocation-free on the hit path.
  net::EntityRef target = dis.networkDestRef();
  if (!target.valid()) target = dis.linkDestRef();
  auto [entry, inserted] = perDevice_[typeIdx].tryEmplace(target, window_);
  entry->value.record(ctx.now);

  if (const Protocol proto = protocolOf(dis);
      proto != kNoProtocol && !protocolsSeen_[proto]) {
    protocolsSeen_[proto] = true;
    ctx.kb.put(std::string(labels::kProtocols) + "." + kProtocolNames[proto],
               true);
  }
}

void TrafficStatsModule::onTick(ModuleContext& ctx) {
  lastNow_ = ctx.now;
  for (std::size_t i = 0; i < global_.size(); ++i) {
    const double rate = global_[i]->rate(ctx.now);
    if (rate > 0.0) ctx.kb.put(rateLabels()[i], rate);
  }
  for (std::size_t i = 0; i < perDevice_.size(); ++i) {
    perDevice_[i].forEachOrdered(
        [&](EntityKeyedMap<SlidingCounter>::Entry& entry) {
          const double rate = entry.value.rate(ctx.now);
          if (rate > 0.0) ctx.kb.put(rateLabels()[i], rate, entry.label);
        });
  }
}

double TrafficStatsModule::globalRate(net::PacketType type, SimTime now) {
  return global_[static_cast<std::size_t>(type)]->rate(now);
}

std::size_t TrafficStatsModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& counter : global_) bytes += counter->memoryBytes();
  for (const auto& m : perDevice_) {
    bytes += m.entryOverheadBytes();
    m.forEachUnordered([&](const EntityKeyedMap<SlidingCounter>::Entry& e) {
      bytes += e.value.memoryBytes() + 32;
    });
  }
  return bytes;
}

}  // namespace kalis::ids
