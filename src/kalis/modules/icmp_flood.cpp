#include "kalis/modules/icmp_flood.hpp"

namespace kalis::ids {

bool IcmpFloodModule::required(const KnowledgeBase& kb) const {
  return kb.local<bool>("Protocols.ICMP").value_or(false);
}

void IcmpFloodModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("detectionThresh"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) detectionThresh_ = *v;
  }
  if (auto it = params.find("minSources"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minSources_ = static_cast<std::size_t>(*v);
    }
  }
  if (auto it = params.find("windowSeconds"); it != params.end()) {
    const auto v = parseDouble(it->second);
    const auto w = v && *v > 0 ? toDuration(*v, seconds(1)) : std::nullopt;
    if (w) {
      window_ = *w;
      replyLog_.clear();
    }
  }
}

void IcmpFloodModule::onPacket(const net::CapturedPacket& pkt,
                               const net::Dissection& dis, ModuleContext& ctx) {
  (void)ctx;
  const bool isReply = dis.type == net::PacketType::kIcmpEchoRep ||
                       dis.type == net::PacketType::kIcmpv6EchoRep;
  const bool isRequest = dis.type == net::PacketType::kIcmpEchoReq ||
                         dis.type == net::PacketType::kIcmpv6EchoReq;
  if (!isReply && !isRequest) return;

  const net::EntityRef netSrc = dis.networkSourceRef();
  const net::EntityRef netDst = dis.networkDestRef();
  if (!netSrc.valid() || !netDst.valid()) return;
  const net::EntityRef linkSrc = dis.linkSourceRef();

  // Learn the usual physical identity behind each network source; a later
  // mismatch is spoofing evidence.
  auto [it, inserted] = identityBinding_.try_emplace(netSrc, linkSrc);
  const bool spoofed = !inserted && it->second != linkSrc;

  if (isRequest && spoofed) {
    // A request claiming to come from an already-known host but transmitted
    // by a different radio: the Smurf trigger (victim = claimed source).
    spoofedRequests_[netSrc] = pkt.meta.timestamp;
    return;
  }

  if (isReply) {
    auto [log, created] = replyLog_.tryEmplace(netDst, window_);
    log->value.record(VictimEventLog::Event{pkt.meta.timestamp, netSrc,
                                            linkSrc, pkt.meta.rssiDbm,
                                            pkt.medium});
  }
}

void IcmpFloodModule::onTick(ModuleContext& ctx) {
  const bool trustKnowledge = ctx.kb.writesEnabled();
  replyLog_.forEachOrdered([&](EntityKeyedMap<VictimEventLog>::Entry& entry) {
    VictimEventLog& log = entry.value;
    if (log.rate(ctx.now) < detectionThresh_) return;
    if (!log.hasDistinctClaimedSources(ctx.now, minSources_, seenSources_)) {
      return;
    }

    // Symptom present. Consult the Knowledge Base for the topology of the
    // medium the flood rides on.
    const net::Medium medium = log.dominantMedium(ctx.now);
    const char* label = medium == net::Medium::kIeee802154
                            ? labels::kMultihopWpan
                            : labels::kMultihopWifi;
    const auto multihop = ctx.kb.local<bool>(label);

    if (trustKnowledge) {
      if (!multihop.has_value()) return;  // still learning: don't guess
      if (*multihop) {
        // Multi-hop: Smurf is possible. If we saw the Smurf trigger
        // (spoofed requests in the victim's name), leave it to SmurfModule.
        auto spoofIt = spoofedRequests_.find(entry.key);
        if (spoofIt != spoofedRequests_.end() &&
            ctx.now <= spoofIt->second + window_) {
          return;
        }
      }
    }

    if (!shouldAlert(entry.label, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kIcmpFlood;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entry.label;
    alert.confidence = log.rssiSpread(ctx.now) < 3.0 ? 1.0 : 0.7;
    // One-hop suspect: the radio actually transmitting the replies.
    alert.suspectEntities.push_back(log.dominantLinkSource(ctx.now).toString());
    alert.detail = "echo-reply rate " + formatDouble(log.rate(ctx.now)) +
                   "/s from " +
                   std::to_string(log.distinctClaimedSources(ctx.now)) +
                   " claimed sources";
    ctx.raiseAlert(std::move(alert));
  });
}

std::size_t IcmpFloodModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes();
  bytes += replyLog_.entryOverheadBytes();
  replyLog_.forEachUnordered(
      [&](const EntityKeyedMap<VictimEventLog>::Entry& e) {
        bytes += e.value.memoryBytes();
      });
  bytes += identityBinding_.size() * sizeof(net::EntityRef) * 2;
  bytes += spoofedRequests_.size() *
           (sizeof(net::EntityRef) + sizeof(SimTime));
  return bytes;
}

}  // namespace kalis::ids
