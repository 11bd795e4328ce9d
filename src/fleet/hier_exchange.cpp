#include "fleet/hier_exchange.hpp"

#include <algorithm>
#include <utility>

namespace kalis::fleet {

namespace {

/// Appends `item` to a drop-oldest FIFO of `capacity` entries; true when
/// the oldest entry was evicted to make room.
bool pushDropOldest(std::deque<TierItem>& fifo, std::size_t capacity,
                    TierItem item) {
  const bool full = fifo.size() >= capacity;
  if (full) fifo.pop_front();
  fifo.push_back(std::move(item));
  return full;
}

}  // namespace

TierTable::Apply TierTable::apply(const ids::Knowgget& k) {
  const std::string key = ids::encodeKey(k.creator, k.label, k.entity);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.creator != k.creator) return Apply::kRejected;  // one-way
    if (it->second.value == k.value) return Apply::kUnchanged;
    it->second = k;
    return Apply::kAccepted;
  }
  entries_.emplace(std::move(key), k);
  return Apply::kAccepted;
}

HierarchicalExchange::HierarchicalExchange(Options options)
    : regionInboxCapacity_(
          std::max<std::size_t>(1, options.regionInboxCapacity)),
      globalInboxCapacity_(
          std::max<std::size_t>(1, options.globalInboxCapacity)),
      globalLog_(options.globalLogCapacity),
      finalKnowledge_(options.homes) {
  const std::size_t regions = options.regions == 0 ? 1 : options.regions;
  regions_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    regions_.emplace_back(options.regionLogCapacity);
  }
}

void HierarchicalExchange::publishFromHome(std::size_t /*home*/,
                                           std::size_t region,
                                           const ids::Knowgget& k, SimTime at) {
  Region& owner = regions_[region];
  ++owner.tally.published;
  if (pushDropOldest(owner.inbox, regionInboxCapacity_, {k, at})) {
    ++owner.tally.regionDropped;
  }
}

void HierarchicalExchange::applyToRegion(Region& region, const TierItem& item,
                                         bool forwardUp) {
  switch (region.table.apply(item.knowgget)) {
    case TierTable::Apply::kAccepted:
      ++region.tally.regionAccepted;
      // Changed entries fan down to the region's homes, and (on the upward
      // path only) up toward the global tier. Unchanged entries stop here —
      // that is what keeps the up/down circulation loop-free.
      region.log.append(item);
      if (forwardUp) {
        ++region.tally.globalForwarded;
        if (pushDropOldest(region.up, globalInboxCapacity_, item)) {
          ++region.tally.globalDropped;
        }
      }
      break;
    case TierTable::Apply::kRejected:
      ++region.tally.regionRejected;
      break;
    case TierTable::Apply::kUnchanged:
      break;
  }
}

std::size_t HierarchicalExchange::syncRegion(std::size_t r) {
  Region& region = regions_[r];
  const std::size_t drained = region.inbox.size();
  for (const TierItem& item : region.inbox) {
    applyToRegion(region, item, /*forwardUp=*/true);
    region.inboxWatermark = std::max(region.inboxWatermark, item.publishedAt);
  }
  region.inbox.clear();
  region.tally.regionDrained += drained;
  return drained;
}

TierTable::Apply HierarchicalExchange::applyToGlobal(const ids::Knowgget& k) {
  const TierTable::Apply verdict = globalTable_.apply(k);
  if (verdict == TierTable::Apply::kAccepted) ++globalTally_.globalAccepted;
  if (verdict == TierTable::Apply::kRejected) ++globalTally_.globalRejected;
  return verdict;
}

std::size_t HierarchicalExchange::syncGlobal() {
  // The up-buffers in region order form one upward stream. Like a single
  // drop-oldest inbox of globalInboxCapacity, it keeps the newest entries,
  // so the survivors do not depend on which worker synced first.
  std::size_t pending = 0;
  for (const Region& region : regions_) pending += region.up.size();
  const std::size_t dropped =
      pending > globalInboxCapacity_ ? pending - globalInboxCapacity_ : 0;
  globalTally_.globalDropped += dropped;
  globalTally_.globalDrained += pending - dropped;
  std::size_t seen = 0;
  for (Region& region : regions_) {
    for (const TierItem& item : region.up) {
      if (seen++ < dropped) continue;
      if (applyToGlobal(item.knowgget) == TierTable::Apply::kAccepted) {
        globalLog_.append(item);
      }
      globalWatermark_ = std::max(globalWatermark_, item.publishedAt);
    }
    region.up.clear();
  }
  return pending - dropped;
}

std::size_t HierarchicalExchange::pullGlobalIntoRegion(std::size_t r) {
  Region& region = regions_[r];
  // Downward only: entries from the global tier must not bounce back up
  // through the up-buffer. Cursor overruns stay in the cursor's missed
  // tally; stats() sums them.
  return globalLog_.poll(region.globalCursor, [&](const TierItem& item) {
    applyToRegion(region, item, /*forwardUp=*/false);
  });
}

void HierarchicalExchange::finishChild(std::size_t home,
                                       std::vector<ids::Knowgget> finalOwn) {
  finalKnowledge_[home] = std::move(finalOwn);
}

void HierarchicalExchange::reconcile() {
  // Pending upward traffic first: region inboxes feed the up-buffers, so
  // the order region → global empties everything in one pass.
  for (std::size_t r = 0; r < regions_.size(); ++r) syncRegion(r);
  syncGlobal();
  // Fold every home's deposited finals into the global view, in home order
  // (deterministic). This repairs anything the drop-oldest FIFOs evicted.
  for (const auto& finalOwn : finalKnowledge_) {
    for (const ids::Knowgget& k : finalOwn) applyToGlobal(k);
  }
}

HierarchicalExchange::Stats HierarchicalExchange::stats() const {
  Stats s = globalTally_;
  for (const Region& region : regions_) {
    const Stats& t = region.tally;
    s.published += t.published;
    s.regionDrained += t.regionDrained;
    s.regionDropped += t.regionDropped;
    s.globalForwarded += t.globalForwarded;
    s.globalDropped += t.globalDropped;
    s.regionAccepted += t.regionAccepted;
    s.regionRejected += t.regionRejected;
    s.regionLogMissed += t.regionLogMissed;
    s.globalLogMissed += region.globalCursor.missed;
  }
  return s;
}

}  // namespace kalis::fleet
