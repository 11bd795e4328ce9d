// Shared per-victim event bookkeeping for flood-style detection modules
// (ICMP flood, Smurf, SYN flood, hello flood, deauth flood).
//
// Events carry net::EntityRef identities (fixed-size, trivially copyable)
// instead of strings, so recording a packet on the hot path performs no
// allocation beyond the deque slot. String forms are materialized only at
// alert time.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "kalis/entity_map.hpp"
#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::ids {

/// Whether `events` name at least `n` distinct sources, where
/// `sourceOf(event)` points at an event's source, or is nullptr for an
/// event that does not count. Decides a flood module's per-tick "enough
/// sources?" test without building a set: the scan stops at the n-th
/// distinct source, so `seen` never holds more than n entries, and as a
/// scratch buffer the caller reuses across ticks it stops allocating once
/// it has grown that far.
template <class Events, class SourceOf>
bool hasDistinctSources(const Events& events, std::size_t n,
                        std::vector<net::EntityRef>& seen, SourceOf sourceOf) {
  seen.clear();
  for (const auto& event : events) {
    if (seen.size() >= n) break;
    const net::EntityRef* src = sourceOf(event);
    if (src != nullptr &&
        std::find(seen.begin(), seen.end(), *src) == seen.end()) {
      seen.push_back(*src);
    }
  }
  return seen.size() >= n;
}

/// Events aimed at one victim within a trailing window.
class VictimEventLog {
 public:
  struct Event {
    SimTime time = 0;
    net::EntityRef claimedSrc;  ///< network-layer source claimed in the packet
    net::EntityRef linkSrc;     ///< who physically transmitted it
    double rssiDbm = 0.0;
    net::Medium medium = net::Medium::kWifi;
  };

  explicit VictimEventLog(Duration window) : window_(window) {}

  void record(Event ev) {
    events_.push_back(ev);
    evict(ev.time);
  }

  void evict(SimTime now) {
    const SimTime cutoff = now > window_ ? now - window_ : 0;
    while (!events_.empty() && events_.front().time <= cutoff) {
      events_.pop_front();
    }
  }

  std::size_t count(SimTime now) {
    evict(now);
    return events_.size();
  }

  double rate(SimTime now) {
    evict(now);
    return static_cast<double>(events_.size()) / toSeconds(window_);
  }

  /// Whether the window holds at least `n` distinct claimed sources (see
  /// hasDistinctSources; `seen` is the caller's scratch buffer).
  bool hasDistinctClaimedSources(SimTime now, std::size_t n,
                                 std::vector<net::EntityRef>& seen) {
    evict(now);
    return hasDistinctSources(events_, n, seen, [](const Event& ev) {
      return &ev.claimedSrc;
    });
  }

  /// The number of distinct claimed sources in the window. Builds a set:
  /// for alert text only.
  std::size_t distinctClaimedSources(SimTime now) {
    evict(now);
    std::set<net::EntityRef> srcs;
    for (const Event& ev : events_) srcs.insert(ev.claimedSrc);
    return srcs.size();
  }

  /// Most frequent physical (link-layer) transmitter in the window; ties
  /// break toward the smallest string form (legacy string-map order).
  net::EntityRef dominantLinkSource(SimTime now) {
    evict(now);
    std::map<net::EntityRef, std::size_t> counts;
    for (const Event& ev : events_) ++counts[ev.linkSrc];
    return dominantEntity(counts);
  }

  /// RSSI spread (max - min) of the windowed events — near zero when a
  /// single physical attacker forges many identities.
  double rssiSpread(SimTime now) {
    evict(now);
    if (events_.empty()) return 0.0;
    double lo = events_.front().rssiDbm;
    double hi = lo;
    for (const Event& ev : events_) {
      lo = ev.rssiDbm < lo ? ev.rssiDbm : lo;
      hi = ev.rssiDbm > hi ? ev.rssiDbm : hi;
    }
    return hi - lo;
  }

  net::Medium dominantMedium(SimTime now) {
    evict(now);
    std::size_t perMedium[3] = {0, 0, 0};
    for (const Event& ev : events_) {
      ++perMedium[static_cast<std::size_t>(ev.medium)];
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < 3; ++i) {
      if (perMedium[i] > perMedium[best]) best = i;
    }
    return static_cast<net::Medium>(best);
  }

  const std::deque<Event>& events() const { return events_; }

  std::size_t memoryBytes() const { return events_.size() * sizeof(Event); }

 private:
  Duration window_;
  std::deque<Event> events_;
};

}  // namespace kalis::ids
