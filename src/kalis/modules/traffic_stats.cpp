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
    counter = std::make_unique<RateCounter>(window_);
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
        counter = std::make_unique<RateCounter>(window_);
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
  const auto typeIdx = static_cast<std::size_t>(dis.type);
  global_[typeIdx]->counter.record(ctx.now);

  // Per-device accounting against the traffic's *target* — the entity a
  // DoS-style attack would be aimed at. Allocation-free on the hit path.
  net::EntityRef target = dis.networkDestRef();
  if (!target.valid()) target = dis.linkDestRef();
  auto [entry, inserted] = perDevice_[typeIdx].tryEmplace(target, window_);
  entry->value.counter.record(ctx.now);

  if (const Protocol proto = protocolOf(dis);
      proto != kNoProtocol && !protocolsSeen_[proto]) {
    protocolsSeen_[proto] = true;
    ctx.kb.put(std::string(labels::kProtocols) + "." + kProtocolNames[proto],
               true);
  }
}

// Change-only publishing. A tick puts a counter's rate only when it
// differs from the rate last put for that counter; the skip comes before
// formatDouble, the key encode and the KB's ordered lookup. It is exact:
// the KB holds formatDouble(lastPut) under every key this module put,
// because
//  - no other code writes this node's TrafficFrequency.* keys (putRemote
//    refuses a peer that claims this node's id as creator),
//  - the KB never removes an entry, and
//  - while writes are disabled every put is a no-op, and disabling is
//    one-way (KnowledgeBase::disableWrites).
// So the KB would have ignored every skipped put as unchanged: no publish,
// no subscription fire, no `updated` stamp. A zero rate is never put, so a
// rate that leaves and returns (A -> 0 -> A) finds A still in the KB. A
// reconfigured window starts new counters with lastPut = 0, whose first
// put reaches the KB, which compares the values itself.
void TrafficStatsModule::publishRate(RateCounter& rc, const std::string& label,
                                     const std::string& entity,
                                     ModuleContext& ctx) {
  const double rate = rc.counter.rate(ctx.now);
  // Both sides are positive or zero, never NaN: != is bit difference.
  if (rate > 0.0 && rate != rc.lastPut) {
    rc.lastPut = rate;
    ctx.kb.put(label, rate, entity);
  }
}

void TrafficStatsModule::onTick(ModuleContext& ctx) {
  static const std::string kNoEntity;
  for (std::size_t i = 0; i < global_.size(); ++i) {
    publishRate(*global_[i], rateLabels()[i], kNoEntity, ctx);
  }
  for (std::size_t i = 0; i < perDevice_.size(); ++i) {
    perDevice_[i].forEachOrdered(
        [&](EntityKeyedMap<RateCounter>::Entry& entry) {
          publishRate(entry.value, rateLabels()[i], entry.label, ctx);
        });
  }
}

double TrafficStatsModule::globalRate(net::PacketType type, SimTime now) {
  return global_[static_cast<std::size_t>(type)]->counter.rate(now);
}

std::size_t TrafficStatsModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& counter : global_) {
    bytes += counter->counter.memoryBytes() + sizeof(counter->lastPut);
  }
  for (const auto& m : perDevice_) {
    // sizeof(Entry) covers each per-device lastPut.
    bytes += m.entryOverheadBytes();
    m.forEachUnordered([&](const EntityKeyedMap<RateCounter>::Entry& e) {
      bytes += e.value.counter.memoryBytes() + 32;
    });
  }
  return bytes;
}

}  // namespace kalis::ids
