#include "kalis/modules/replication.hpp"

#include <algorithm>
#include <cmath>

namespace kalis::ids {

namespace {
bool isWpanSender(const net::Dissection& dis) {
  return dis.wpan.has_value();
}
}  // namespace

// --- ReplicationStaticModule ----------------------------------------------------

void ReplicationStaticModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("clusterGapDb"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) clusterGapDb_ = *v;
  }
  if (auto it = params.find("minPerCluster"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minPerCluster_ = static_cast<std::size_t>(*v);
    }
  }
}

void ReplicationStaticModule::Window::add(const Sample& s) {
  samples.push_back(s);
  sortedRssi.insert(
      std::upper_bound(sortedRssi.begin(), sortedRssi.end(), s.rssi), s.rssi);
}

void ReplicationStaticModule::Window::expire(SimTime cutoff) {
  while (!samples.empty() && samples.front().time <= cutoff) {
    sortedRssi.erase(std::lower_bound(sortedRssi.begin(), sortedRssi.end(),
                                      samples.front().rssi));
    samples.pop_front();
  }
}

void ReplicationStaticModule::onPacket(const net::CapturedPacket& pkt,
                                       const net::Dissection& dis,
                                       ModuleContext& ctx) {
  (void)ctx;
  if (!isWpanSender(dis)) return;
  // A NaN reading has no place in an ordered window; only a crafted
  // capture carries one.
  if (std::isnan(pkt.meta.rssiDbm)) return;
  Window& window = samples_.tryEmplace(dis.linkSourceRef()).first->value;
  window.add(Sample{pkt.meta.timestamp, pkt.meta.rssiDbm});
  window.expire(pkt.meta.timestamp > window_ ? pkt.meta.timestamp - window_
                                             : 0);
}

void ReplicationStaticModule::onTick(ModuleContext& ctx) {
  const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
  samples_.forEachOrdered([&](EntityKeyedMap<Window>::Entry& e) {
    const std::string& entity = e.label;
    e.value.expire(cutoff);
    const std::vector<double>& values = e.value.sortedRssi;
    if (values.size() < 2 * minPerCluster_) return;

    // Split the sorted RSSI values at the largest gap; two tight, populated,
    // well-separated clusters mean two radios under one identity.
    std::size_t gapAt = 0;
    double gap = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i) {
      const double g = values[i] - values[i - 1];
      if (g > gap) {
        gap = g;
        gapAt = i;
      }
    }
    if (gap < clusterGapDb_) return;
    const std::size_t lowCount = gapAt;
    const std::size_t highCount = values.size() - gapAt;
    if (lowCount < minPerCluster_ || highCount < minPerCluster_) return;
    const double lowSpread = values[gapAt - 1] - values.front();
    const double highSpread = values.back() - values[gapAt];
    if (lowSpread > clusterTightDb_ || highSpread > clusterTightDb_) return;

    if (!shouldAlert(entity, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kReplication;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entity;  // the cloned identity
    alert.suspectEntities.push_back(entity);
    alert.detail = "bimodal RSSI: clusters at " +
                   formatDouble(values.front()) + ".." +
                   formatDouble(values[gapAt - 1]) + " and " +
                   formatDouble(values[gapAt]) + ".." +
                   formatDouble(values.back()) + " dBm";
    ctx.raiseAlert(std::move(alert));
  });
}

std::size_t ReplicationStaticModule::memoryBytes() const {
  std::size_t bytes =
      sizeof(*this) + alertStateBytes() + samples_.entryOverheadBytes();
  samples_.forEachUnordered([&](const EntityKeyedMap<Window>::Entry& e) {
    bytes += e.value.samples.size() * sizeof(Sample) +
             e.value.sortedRssi.size() * sizeof(double);
  });
  return bytes;
}

// --- ReplicationMobileModule ----------------------------------------------------

void ReplicationMobileModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("impossibleDeltaDb"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) impossibleDeltaDb_ = *v;
  }
  if (auto it = params.find("maxGapMs"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      maxGap_ = milliseconds(static_cast<std::uint64_t>(*v));
    }
  }
  if (auto it = params.find("minEvents"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minEvents_ = static_cast<std::size_t>(*v);
    }
  }
}

void ReplicationMobileModule::onPacket(const net::CapturedPacket& pkt,
                                       const net::Dissection& dis,
                                       ModuleContext& ctx) {
  (void)ctx;
  if (!isWpanSender(dis)) return;
  const net::EntityRef entity = dis.linkSourceRef();
  LastSeen& last = lastSeen_[entity];
  if (last.valid && pkt.meta.timestamp >= last.time &&
      pkt.meta.timestamp - last.time <= maxGap_ &&
      std::fabs(pkt.meta.rssiDbm - last.rssi) >= impossibleDeltaDb_) {
    auto& queue = events_.tryEmplace(entity).first->value;
    queue.push_back(pkt.meta.timestamp);
    const SimTime cutoff =
        pkt.meta.timestamp > window_ ? pkt.meta.timestamp - window_ : 0;
    while (!queue.empty() && queue.front() <= cutoff) queue.pop_front();
  }
  last.time = pkt.meta.timestamp;
  last.rssi = pkt.meta.rssiDbm;
  last.valid = true;
}

void ReplicationMobileModule::onTick(ModuleContext& ctx) {
  events_.forEachOrdered([&](EntityKeyedMap<std::deque<SimTime>>::Entry& e) {
    const std::string& entity = e.label;
    std::deque<SimTime>& queue = e.value;
    const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
    while (!queue.empty() && queue.front() <= cutoff) queue.pop_front();
    if (queue.size() < minEvents_) return;
    if (!shouldAlert(entity, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kReplication;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entity;
    alert.suspectEntities.push_back(entity);
    alert.detail = std::to_string(queue.size()) +
                   " physically impossible moves for one identity";
    ctx.raiseAlert(std::move(alert));
  });
}

std::size_t ReplicationMobileModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes() +
                      lastSeen_.size() * (sizeof(net::EntityRef) + 32) +
                      events_.entryOverheadBytes();
  events_.forEachUnordered(
      [&](const EntityKeyedMap<std::deque<SimTime>>::Entry& e) {
        bytes += e.value.size() * sizeof(SimTime);
      });
  return bytes;
}

}  // namespace kalis::ids
