#include "baseline/snort_engine.hpp"

#include <algorithm>

#include "net/medium_dlt.hpp"

namespace kalis::baseline {

namespace {

/// The baseline's capture DLT restriction, expressed through the shared
/// medium↔DLT table (net/medium_dlt.hpp) instead of ad-hoc medium checks.
bool capturable(net::Medium medium) {
  return net::dltForMedium(medium) == net::kDltIeee80211;
}

/// Work-unit cost of evaluating one rule against one packet: header checks
/// plus a payload scan per content pattern. Deliberately coarse — it is the
/// *per-rule, per-packet* structure that makes a large ruleset expensive.
std::uint64_t ruleCost(const SnortRule& rule) {
  return 1 + 2 * rule.contents.size();
}

bool containsBytes(BytesView haystack, const Bytes& needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

}  // namespace

std::size_t SnortEngine::loadRules(std::string_view text) {
  RuleParseResult result = parseRules(text);
  for (auto& rule : result.rules) rules_.push_back(std::move(rule));
  for (auto& error : result.errors) parseErrors_.push_back(std::move(error));
  return rules_.size();
}

void SnortEngine::onPacket(const net::CapturedPacket& pkt) {
  if (!capturable(pkt.medium)) {
    ++packetsUnparsed_;
    return;
  }
  onPacket(pkt, net::dissect(pkt));
}

void SnortEngine::onPacket(const net::CapturedPacket& pkt,
                           const net::Dissection& dis) {
  // Snort's capture stack is libpcap bound to an interface whose link type
  // is DLT_IEEE802_11 — the same net::MediumDlt row trace::PcapReader uses
  // for WiFi files. Frames on other link types (DLT 195 802.15.4, DLT 251
  // BLE) never reach it.
  if (!capturable(pkt.medium)) {
    ++packetsUnparsed_;
    return;
  }
  if (!dis.ipv4) {
    ++packetsUnparsed_;
    return;
  }
  ++packetsProcessed_;

  for (const SnortRule& rule : rules_) {
    workUnits_ += ruleCost(rule);
    if (!matches(rule, dis)) continue;

    if (rule.threshold) {
      const std::string trackKey =
          std::to_string(rule.sid) + "|" +
          (rule.threshold->track == ThresholdSpec::Track::kBySrc
               ? net::toString(dis.ipv4->src)
               : net::toString(dis.ipv4->dst));
      ThresholdState& state = thresholds_[trackKey];
      const SimTime now = pkt.meta.timestamp;
      const Duration window = rule.threshold->window;
      const SimTime cutoff = now > window ? now - window : 0;
      while (!state.hits.empty() && state.hits.front() <= cutoff) {
        state.hits.pop_front();
      }
      state.hits.push_back(now);
      if (state.hits.size() < rule.threshold->count) continue;
      state.hits.clear();  // "type both": fire once per window fill
    }
    fire(rule, dis, pkt.meta.timestamp);
  }
}

bool SnortEngine::matches(const SnortRule& rule,
                          const net::Dissection& dis) const {
  const net::Ipv4Header& ip = *dis.ipv4;
  switch (rule.proto) {
    case RuleProto::kTcp:
      if (!dis.tcp) return false;
      break;
    case RuleProto::kUdp:
      if (!dis.udp) return false;
      break;
    case RuleProto::kIcmp:
      if (!dis.icmp) return false;
      break;
    case RuleProto::kIp:
      break;
  }
  if (!rule.src.matches(ip.src.value) || !rule.dst.matches(ip.dst.value)) {
    return false;
  }
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  if (dis.tcp) {
    srcPort = dis.tcp->srcPort;
    dstPort = dis.tcp->dstPort;
  } else if (dis.udp) {
    srcPort = dis.udp->srcPort;
    dstPort = dis.udp->dstPort;
  }
  if (!rule.srcPort.matches(srcPort) || !rule.dstPort.matches(dstPort)) {
    return false;
  }
  if (rule.itype &&
      (!dis.icmp || static_cast<int>(dis.icmp->type) != *rule.itype)) {
    return false;
  }
  if (rule.icode && (!dis.icmp || dis.icmp->code != *rule.icode)) return false;
  if (rule.flags) {
    if (!dis.tcp) return false;
    const net::TcpFlags& f = dis.tcp->flags;
    const TcpFlagsSpec& want = *rule.flags;
    if (f.syn != want.syn || f.ack != want.ack || f.fin != want.fin ||
        f.rst != want.rst || f.psh != want.psh) {
      return false;
    }
  }
  if (rule.dsize && !rule.dsize->matches(dis.appPayload.size())) return false;
  for (const Bytes& content : rule.contents) {
    if (!containsBytes(dis.appPayload, content)) return false;
  }
  return true;
}

void SnortEngine::fire(const SnortRule& rule, const net::Dissection& dis,
                       SimTime now) {
  // Rate-limit identical (rule, victim) alerts to one per 10 s: Snort's
  // "limit" semantics, and keeps accuracy scoring comparable across systems.
  const std::string key =
      std::to_string(rule.sid) + "|" + net::toString(dis.ipv4->dst);
  auto it = lastFired_.find(key);
  if (it != lastFired_.end() && now < it->second + seconds(10)) return;
  lastFired_[key] = now;

  ids::Alert alert;
  alert.type = rule.attackType();
  alert.time = now;
  alert.moduleName = "snort:sid" + std::to_string(rule.sid);
  alert.victimEntity = net::toString(dis.ipv4->dst);
  alert.suspectEntities.push_back(dis.linkSource());
  alert.detail = rule.msg;
  alerts_.push_back(std::move(alert));
}

std::size_t SnortEngine::memoryBytes() const {
  std::size_t bytes = 0;
  for (const SnortRule& rule : rules_) {
    bytes += sizeof(SnortRule) + rule.msg.size() + rule.classtype.size();
    for (const Bytes& content : rule.contents) bytes += content.size();
  }
  for (const auto& [key, state] : thresholds_) {
    bytes += key.size() + state.hits.size() * sizeof(SimTime) + 32;
  }
  return bytes;
}

}  // namespace kalis::baseline
