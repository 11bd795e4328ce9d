#include "kalis/modules/syn_flood.hpp"

#include <set>

#include "kalis/modules/flood_common.hpp"

namespace kalis::ids {

void SynFloodModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("rateThresh"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) rateThresh_ = *v;
  }
  if (auto it = params.find("minSources"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minSources_ = static_cast<std::size_t>(*v);
    }
  }
  if (auto it = params.find("halfOpenRatio"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) halfOpenRatio_ = *v;
  }
}

void SynFloodModule::evict(VictimState& state, SimTime now) {
  const SimTime cutoff = now > window_ ? now - window_ : 0;
  while (!state.syns.empty() && state.syns.front().time <= cutoff) {
    state.syns.pop_front();
  }
}

void SynFloodModule::onPacket(const net::CapturedPacket& pkt,
                              const net::Dissection& dis, ModuleContext& ctx) {
  (void)ctx;
  if (!dis.tcp) return;
  const net::EntityRef netSrc = dis.networkSourceRef();
  const net::EntityRef netDst = dis.networkDestRef();
  if (!netSrc.valid() || !netDst.valid()) return;

  if (dis.type == net::PacketType::kTcpSyn) {
    auto [entry, created] = victims_.tryEmplace(netDst);
    VictimState& state = entry->value;
    state.syns.push_back(SynRecord{pkt.meta.timestamp, netSrc,
                                   dis.linkSourceRef(), dis.tcp->seq, false});
    evict(state, pkt.meta.timestamp);
    return;
  }

  // A handshake-completing ACK from the initiator: ackNo == server_isn+1 is
  // unknowable passively without tracking the SYN-ACK, so match on the
  // initiator's (src, seq): the final ACK carries seq == isn+1.
  if (dis.type == net::PacketType::kTcpAck) {
    auto* entry = victims_.find(netDst);
    if (!entry) return;
    for (SynRecord& rec : entry->value.syns) {
      if (!rec.completed && rec.claimedSrc == netSrc &&
          dis.tcp->seq == rec.isn + 1) {
        rec.completed = true;
        break;
      }
    }
  }
}

void SynFloodModule::onTick(ModuleContext& ctx) {
  victims_.forEachOrdered([&](EntityKeyedMap<VictimState>::Entry& entry) {
    VictimState& state = entry.value;
    evict(state, ctx.now);
    if (state.syns.empty()) return;
    // Grace period: a SYN younger than 1 s may simply not be answered yet.
    const auto isMature = [&](const SynRecord& rec) {
      return ctx.now >= rec.time + seconds(1);
    };
    const auto halfOpenSource =
        [&](const SynRecord& rec) -> const net::EntityRef* {
      return isMature(rec) && !rec.completed ? &rec.claimedSrc : nullptr;
    };
    std::size_t halfOpen = 0;
    std::size_t mature = 0;
    for (const SynRecord& rec : state.syns) {
      if (!isMature(rec)) continue;
      ++mature;
      if (!rec.completed) ++halfOpen;
    }
    if (mature == 0) return;
    const double halfOpenRate =
        static_cast<double>(halfOpen) / toSeconds(window_);
    const double ratio =
        static_cast<double>(halfOpen) / static_cast<double>(mature);
    // The three tests form one ||: the source scan, the only one that walks
    // the window again, goes last.
    if (halfOpenRate < rateThresh_ || ratio < halfOpenRatio_ ||
        !hasDistinctSources(state.syns, minSources_, seenSources_,
                            halfOpenSource)) {
      return;
    }
    if (!shouldAlert(entry.label, ctx.now, cooldown_)) return;

    // Physical suspects: link transmitters of the half-open SYNs.
    std::map<net::EntityRef, std::size_t> linkCounts;
    std::set<net::EntityRef> sources;
    for (const SynRecord& rec : state.syns) {
      if (!rec.completed) ++linkCounts[rec.linkSrc];
      if (const net::EntityRef* src = halfOpenSource(rec)) sources.insert(*src);
    }
    Alert alert;
    alert.type = AttackType::kSynFlood;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entry.label;
    alert.suspectEntities.push_back(dominantEntity(linkCounts).toString());
    alert.detail = "half-open SYN rate " + formatDouble(halfOpenRate) +
                   "/s, ratio " + formatDouble(ratio) + ", " +
                   std::to_string(sources.size()) + " sources";
    ctx.raiseAlert(std::move(alert));
  });
}

std::size_t SynFloodModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes();
  bytes += victims_.entryOverheadBytes();
  victims_.forEachUnordered([&](const EntityKeyedMap<VictimState>::Entry& e) {
    bytes += e.value.syns.size() * sizeof(SynRecord);
  });
  return bytes;
}

}  // namespace kalis::ids
