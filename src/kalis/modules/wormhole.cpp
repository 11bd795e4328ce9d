#include "kalis/modules/wormhole.hpp"

#include <charconv>
#include <set>
#include <sstream>

#include "kalis/modules/forwarding_watchdog.hpp"

namespace kalis::ids {

namespace {

/// The fingerprints in a Wormhole.* value: comma-separated fields of 1-16
/// hex digits. Values arrive from peers (putRemote), so a field that is
/// anything else (empty, signed, prefixed, too long, not hex) is skipped.
std::set<std::uint64_t> parseFpCsv(const std::string& csv) {
  std::set<std::uint64_t> out;
  for (const std::string& part : split(csv, ',')) {
    if (part.empty() || part.size() > 16) continue;
    const char* end = part.data() + part.size();
    std::uint64_t fp = 0;
    const auto [parsed, error] = std::from_chars(part.data(), end, fp, 16);
    if (error != std::errc{} || parsed != end) continue;
    out.insert(fp);
  }
  return out;
}

}  // namespace

void WormholeModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("minMatches"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minMatches_ = static_cast<std::size_t>(*v);
    }
  }
}

void WormholeModule::onPacket(const net::CapturedPacket& pkt,
                              const net::Dissection& dis, ModuleContext& ctx) {
  (void)ctx;
  if (!dis.zigbee || !dis.wpan) return;
  const net::ZigbeeNwkFrameView& nwk = *dis.zigbee;
  const net::EntityRef sender = dis.linkSourceRef();
  const net::EntityRef nwkSrc = net::EntityRef::of(nwk.src);
  directSenders_.insert(sender);

  // Remember what was legitimately handed to whom.
  if (!dis.wpan->dst.isBroadcast()) {
    const Inbound key{nwk.src.value, nwk.seq, dis.linkDestRef()};
    if (inboundSet_.insert(key).second) {
      inboundRecent_.push_back(key);
      while (inboundRecent_.size() > 8192) {
        inboundSet_.erase(inboundRecent_.front());
        inboundRecent_.pop_front();
      }
    }
  }

  // Unexplained relay: `sender` transmits in the name of an origin it was
  // never handed a frame from, and which we never heard transmit itself.
  if (nwkSrc != sender && !directSenders_.contains(nwkSrc)) {
    if (!inboundSet_.contains(Inbound{nwk.src.value, nwk.seq, sender})) {
      auto& queue = unexplained_.tryEmplace(sender).first->value;
      queue.push_back(Injection{
          pkt.meta.timestamp,
          ForwardingWatchdog::fingerprint(nwk.src.value, nwk.seq,
                                          BytesView(nwk.payload))});
      const SimTime cutoff =
          pkt.meta.timestamp > window_ ? pkt.meta.timestamp - window_ : 0;
      while (!queue.empty() && queue.front().time <= cutoff) queue.pop_front();
    }
  }
}

void WormholeModule::onTick(ModuleContext& ctx) {
  // Publish local unexplained-injection evidence (collective).
  unexplained_.forEachOrdered(
      [&](EntityKeyedMap<std::deque<Injection>>::Entry& e) {
        std::deque<Injection>& queue = e.value;
        const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
        while (!queue.empty() && queue.front().time <= cutoff) {
          queue.pop_front();
        }
        if (queue.empty()) return;
        std::ostringstream csv;
        std::size_t i = 0;
        for (const Injection& inj : queue) {
          if (i++ >= 64) break;
          if (i > 1) csv << ",";
          csv << std::hex << inj.fp;
        }
        ctx.kb.put(labels::kWormholeUnexplained, csv.str(), e.label,
                   /*collective=*/true);
      });

  // Correlate drop evidence against injection evidence across all creators
  // present in the Knowledge Base (local and peers').
  const auto drops = ctx.kb.byLabel(labels::kWormholeDrops);
  const auto injections = ctx.kb.byLabel(labels::kWormholeUnexplained);
  for (const Knowgget& drop : drops) {
    const auto dropFps = parseFpCsv(drop.value);
    if (dropFps.empty()) continue;
    for (const Knowgget& inj : injections) {
      if (inj.entity == drop.entity) continue;
      const auto injFps = parseFpCsv(inj.value);
      std::size_t matches = 0;
      for (std::uint64_t fp : injFps) {
        if (dropFps.contains(fp)) ++matches;
      }
      if (matches < minMatches_) continue;
      const std::string pairKey = drop.entity + "|" + inj.entity;
      if (!shouldAlert(pairKey, ctx.now, cooldown_)) continue;
      Alert alert;
      alert.type = AttackType::kWormhole;
      alert.time = ctx.now;
      alert.moduleName = name();
      alert.suspectEntities = {drop.entity, inj.entity};
      alert.detail = std::to_string(matches) +
                     " tunneled packets matched between " + drop.creator +
                     " and " + inj.creator;
      ctx.raiseAlert(std::move(alert));
    }
  }
}

std::size_t WormholeModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes() +
                      directSenders_.size() * (sizeof(net::EntityRef) + 16) +
                      inboundRecent_.size() * (sizeof(Inbound) * 2 + 32) +
                      unexplained_.entryOverheadBytes();
  unexplained_.forEachUnordered(
      [&](const EntityKeyedMap<std::deque<Injection>>::Entry& e) {
        bytes += e.value.size() * sizeof(Injection);
      });
  return bytes;
}

}  // namespace kalis::ids
