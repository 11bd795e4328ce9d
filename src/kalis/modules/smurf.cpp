#include "kalis/modules/smurf.hpp"

#include <algorithm>

namespace kalis::ids {

bool SmurfModule::required(const KnowledgeBase& kb) const {
  if (!kb.local<bool>("Protocols.ICMP").value_or(false)) return false;
  // Smurf is impossible on single-hop networks: activate only when some
  // monitored medium is known multi-hop.
  return kb.local<bool>(labels::kMultihopWpan).value_or(false) ||
         kb.local<bool>(labels::kMultihopWifi).value_or(false);
}

void SmurfModule::configure(const std::map<std::string, std::string>& params) {
  if (auto it = params.find("detectionThresh"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) detectionThresh_ = *v;
  }
  if (auto it = params.find("minSources"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minSources_ = static_cast<std::size_t>(*v);
    }
  }
}

void SmurfModule::onPacket(const net::CapturedPacket& pkt,
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

  // The suspect heuristic reasons over the echo-traffic graph only: Smurf
  // amplification travels along ICMP paths, not arbitrary application flows.
  adjacency_[netSrc].insert(netDst);
  adjacency_[netDst].insert(netSrc);
  if (adjacency_.size() > 1024) adjacency_.clear();  // bound state
  const net::EntityRef linkSrc = dis.linkSourceRef();

  auto [bind, inserted] = identityBinding_.try_emplace(netSrc, linkSrc);
  const bool spoofedSource = !inserted && bind->second != linkSrc;

  if (isRequest && spoofedSource) {
    SpoofEvidence& ev = spoofed_[netSrc];  // victim = the forged source
    ev.lastSeen = pkt.meta.timestamp;
    ev.spoofers.insert(linkSrc);
    return;
  }

  if (isReply) {
    auto [log, created] = replyLog_.tryEmplace(netDst, window_);
    log->value.record(VictimEventLog::Event{pkt.meta.timestamp, netSrc,
                                            linkSrc, pkt.meta.rssiDbm,
                                            pkt.medium});
  }
}

std::vector<std::string> SmurfModule::twoHopSuspects(
    const net::EntityRef& victim, const std::string& victimLabel) const {
  std::vector<std::string> result;
  auto it = adjacency_.find(victim);
  if (it == adjacency_.end()) return result;
  const std::set<net::EntityRef>& oneHop = it->second;
  std::set<net::EntityRef> twoHop;
  for (const net::EntityRef& n : oneHop) {
    auto nIt = adjacency_.find(n);
    if (nIt == adjacency_.end()) continue;
    for (const net::EntityRef& nn : nIt->second) {
      if (nn != victim && !oneHop.contains(nn)) twoHop.insert(nn);
    }
  }
  // The paper's "simplistic graph exploration": on a star topology the only
  // node reachable in exactly two link traversals is the victim itself.
  if (twoHop.empty()) return {victimLabel};
  // String-sorted, matching the legacy std::set<std::string> order.
  return sortedLabels(twoHop);
}

std::vector<std::string> SmurfModule::twoHopSuspects(
    const std::string& victim) const {
  // Test/introspection entry point addressing the victim by string; the
  // detection path uses the EntityRef overload directly.
  for (const auto& [entity, neighbors] : adjacency_) {
    if (entity.toString() == victim) return twoHopSuspects(entity, victim);
  }
  return {};
}

void SmurfModule::onTick(ModuleContext& ctx) {
  const bool trustKnowledge = ctx.kb.writesEnabled();
  replyLog_.forEachOrdered([&](EntityKeyedMap<VictimEventLog>::Entry& entry) {
    VictimEventLog& log = entry.value;
    if (log.rate(ctx.now) < detectionThresh_) return;
    if (!log.hasDistinctClaimedSources(ctx.now, minSources_, seenSources_)) {
      return;
    }

    auto spoofIt = spoofed_.find(entry.key);
    const bool haveTrigger = spoofIt != spoofed_.end() &&
                             ctx.now <= spoofIt->second.lastSeen + window_;

    if (trustKnowledge && !haveTrigger) {
      // With knowledge available, a reply storm without the spoofed-request
      // trigger is an ICMP flood, not a Smurf: stay silent.
      return;
    }

    if (!shouldAlert(entry.label, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kSmurf;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entry.label;
    if (haveTrigger) {
      alert.suspectEntities = sortedLabels(spoofIt->second.spoofers);
      alert.confidence = 1.0;
      alert.detail = "reply storm with spoofed echo-request trigger";
    } else {
      alert.suspectEntities = twoHopSuspects(entry.key, entry.label);
      alert.confidence = 0.5;
      alert.detail = "reply storm (no trigger observed; 2-hop heuristic)";
    }
    ctx.raiseAlert(std::move(alert));
  });
}

std::size_t SmurfModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes();
  bytes += replyLog_.entryOverheadBytes();
  replyLog_.forEachUnordered(
      [&](const EntityKeyedMap<VictimEventLog>::Entry& e) {
        bytes += e.value.memoryBytes();
      });
  for (const auto& [k, v] : adjacency_) {
    bytes += sizeof(k) + 32 + v.size() * (sizeof(net::EntityRef) + 16);
  }
  return bytes;
}

}  // namespace kalis::ids
