#include "kalis/modules/forwarding_watchdog.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "util/checksum.hpp"

namespace kalis::ids {

std::uint64_t ForwardingWatchdog::fingerprint(std::uint16_t src,
                                              std::uint8_t seq,
                                              BytesView payload) {
  const std::uint8_t header[3] = {static_cast<std::uint8_t>(src >> 8),
                                  static_cast<std::uint8_t>(src & 0xff), seq};
  return fnv1a64(payload, fnv1a64(BytesView(header)));
}

bool ForwardingWatchdog::labelOrder(const Unit& a, const Unit& b) {
  // Format both keys into stack buffers; NUL padding sorts a prefix first,
  // as std::string comparison does.
  const auto format = [](const Unit& u) {
    std::array<char, 12> text{};
    char* p = text.data();
    *p++ = u.protocol;
    p = std::to_chars(p, text.data() + text.size(), u.origin).ptr;
    *p++ = ':';
    std::to_chars(p, text.data() + text.size(), u.seq);
    return text;
  };
  return format(a) < format(b);
}

void ForwardingWatchdog::observe(const net::CapturedPacket& pkt,
                                 const net::Dissection& dis,
                                 const std::optional<net::EntityRef>& ctpRoot) {
  const SimTime now = pkt.meta.timestamp;
  if (dis.ctpData && dis.wpan) {
    const net::CtpDataView& data = *dis.ctpData;
    const Unit unit{'C', data.origin.value, data.seqno};
    const net::EntityRef receiver = dis.linkDestRef();
    const std::uint64_t payloadHash = fnv1a64(BytesView(data.payload));

    // First: does this transmission resolve a pending expectation?
    resolve(unit, dis.linkSourceRef(), payloadHash, now);

    // Then: does it create a new expectation? The receiver must forward,
    // unless it is the collection root or a broadcast.
    if (!dis.wpan->dst.isBroadcast() && receiver != ctpRoot) {
      expect(Pending{unit, now, receiver, payloadHash,
                     fingerprint(data.origin.value, data.seqno,
                                 BytesView(data.payload)),
                     net::EntityRef::of(data.origin)});
    }
    return;
  }

  if (dis.zigbee && dis.wpan) {
    const net::ZigbeeNwkFrameView& nwk = *dis.zigbee;
    const Unit unit{'Z', nwk.src.value, nwk.seq};
    const net::EntityRef receiver = dis.linkDestRef();
    const std::uint64_t payloadHash = fnv1a64(BytesView(nwk.payload));

    resolve(unit, dis.linkSourceRef(), payloadHash, now);

    // Forwarding expected when the link receiver is not the NWK destination.
    if (!dis.wpan->dst.isBroadcast() && !nwk.dst.isBroadcast() &&
        receiver != net::EntityRef::of(nwk.dst)) {
      expect(Pending{unit, now, receiver, payloadHash,
                     fingerprint(nwk.src.value, nwk.seq,
                                 BytesView(nwk.payload)),
                     net::EntityRef::of(nwk.src)});
    }
  }
}

void ForwardingWatchdog::expect(const Pending& p) {
  if (pending_.size() >= config_.maxPending) return;
  for (Pending& existing : pending_) {
    if (existing.unit == p.unit) {
      existing = p;  // one expectation per unit: the latest hand-off
      return;
    }
  }
  pending_.push_back(p);
}

void ForwardingWatchdog::resolve(const Unit& unit,
                                 const net::EntityRef& bySender,
                                 std::uint64_t newPayloadHash, SimTime now) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&](const Pending& p) { return p.unit == unit; });
  if (it == pending_.end()) return;
  if (it->forwarder != bySender) return;  // someone else's copy
  if (newPayloadHash != it->payloadHash) {
    alterations_.push_back(AlterationEvent{bySender, now, it->originEntity,
                                           it->payloadHash, newPayloadHash});
  }
  addVerdict(bySender, Verdict{now, false, it->fp});
  pending_.erase(it);
}

void ForwardingWatchdog::expire(SimTime now) {
  const auto timedOut = [&](const Pending& p) {
    return now >= p.seen + config_.timeout;
  };
  expired_.clear();
  for (const Pending& p : pending_) {
    if (timedOut(p)) expired_.push_back(p);
  }
  if (expired_.empty()) return;
  std::erase_if(pending_, timedOut);
  std::sort(expired_.begin(), expired_.end(),
            [](const Pending& a, const Pending& b) {
              return labelOrder(a.unit, b.unit);
            });
  for (const Pending& p : expired_) {
    addVerdict(p.forwarder, Verdict{now, true, p.fp});
  }
}

void ForwardingWatchdog::addVerdict(const net::EntityRef& entity, Verdict v) {
  auto& deque = verdicts_.tryEmplace(entity).first->value;
  deque.push_back(v);
  evict(deque, v.time);
}

void ForwardingWatchdog::evict(std::deque<Verdict>& verdicts,
                               SimTime now) const {
  const SimTime cutoff = now > config_.window ? now - config_.window : 0;
  while (!verdicts.empty() && verdicts.front().time <= cutoff) {
    verdicts.pop_front();
  }
}

std::deque<ForwardingWatchdog::Verdict>* ForwardingWatchdog::verdictsOf(
    const net::EntityRef& entity, SimTime now) {
  auto* entry = verdicts_.find(entity);
  if (entry == nullptr) return nullptr;
  evict(entry->value, now);
  return &entry->value;
}

std::size_t ForwardingWatchdog::samples(const net::EntityRef& entity,
                                        SimTime now) {
  const auto* verdicts = verdictsOf(entity, now);
  return verdicts ? verdicts->size() : 0;
}

double ForwardingWatchdog::dropRatio(const net::EntityRef& entity,
                                     SimTime now) {
  const auto* verdicts = verdictsOf(entity, now);
  if (verdicts == nullptr || verdicts->empty()) return 0.0;
  std::size_t dropped = 0;
  for (const Verdict& v : *verdicts) {
    if (v.dropped) ++dropped;
  }
  return static_cast<double>(dropped) / static_cast<double>(verdicts->size());
}

std::vector<std::uint64_t> ForwardingWatchdog::droppedFingerprints(
    const net::EntityRef& entity, SimTime now) {
  std::vector<std::uint64_t> fps;
  if (const auto* verdicts = verdictsOf(entity, now)) {
    for (const Verdict& v : *verdicts) {
      if (v.dropped) fps.push_back(v.fp);
    }
  }
  return fps;
}

std::vector<net::EntityRef> ForwardingWatchdog::observedForwarders(
    SimTime now) {
  std::vector<net::EntityRef> out;
  verdicts_.forEachOrdered(
      [&](EntityKeyedMap<std::deque<Verdict>>::Entry& entry) {
        evict(entry.value, now);
        if (!entry.value.empty()) out.push_back(entry.key);
      });
  return out;
}

std::vector<ForwardingWatchdog::AlterationEvent>
ForwardingWatchdog::drainAlterations() {
  std::vector<AlterationEvent> out;
  out.swap(alterations_);
  return out;
}

std::size_t ForwardingWatchdog::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + pending_.size() * sizeof(Pending) +
                      verdicts_.entryOverheadBytes();
  verdicts_.forEachUnordered(
      [&](const EntityKeyedMap<std::deque<Verdict>>::Entry& e) {
        bytes += e.value.size() * sizeof(Verdict);
      });
  return bytes;
}

}  // namespace kalis::ids
