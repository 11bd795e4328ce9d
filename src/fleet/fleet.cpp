#include "fleet/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <unistd.h>

namespace kalis::fleet {

namespace {

/// Knowggets in each region's shared baseline.
constexpr std::size_t kBaselineEntries = 64;
/// The novel signature the fleet propagates. The baseline pre-loads
/// signatures 0..3 only, so this one starts unknown in every home.
constexpr std::uint8_t kSignatureId = 7;
static_assert(kSignatureId >= 4);

}  // namespace

void RoundBarrier::arriveAndWait(const std::function<void()>& completion) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t gen = generation_;
  if (++arrived_ == parties_) {
    // Completion runs under the barrier mutex while every other party is
    // parked in the wait below — the serial step is exclusive, and the
    // mutex hand-off orders its writes before any party's next phase.
    if (completion) completion();
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen; });
}

std::size_t currentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long totalPages = 0, residentPages = 0;
  const int got = std::fscanf(f, "%lu %lu", &totalPages, &residentPages);
  std::fclose(f);
  if (got != 2) return 0;
  const long pageSize = ::sysconf(_SC_PAGESIZE);
  return residentPages * static_cast<std::size_t>(pageSize > 0 ? pageSize : 4096);
}

Fleet::Fleet(Options options) : options_(options) {
  if (options_.homes == 0) options_.homes = 1;
  if (options_.regions == 0) options_.regions = 1;
  options_.regions = std::min(options_.regions, options_.homes);
  if (options_.workers == 0) options_.workers = 1;
  options_.workers = std::min(options_.workers, options_.regions);
  if (options_.regionSyncEvery == 0) options_.regionSyncEvery = 1;
  if (options_.globalSyncEvery == 0) options_.globalSyncEvery = 1;
  if (options_.globalPullEvery == 0) options_.globalPullEvery = 1;

  HierarchicalExchange::Options ex;
  ex.regions = options_.regions;
  ex.homes = options_.homes;
  exchange_ = std::make_unique<HierarchicalExchange>(ex);

  ranges_.resize(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    ranges_[w].firstRegion = w * options_.regions / options_.workers;
    ranges_[w].lastRegion = (w + 1) * options_.regions / options_.workers;
    ranges_[w].firstHome = homeRangeBegin(ranges_[w].firstRegion);
    ranges_[w].lastHome = homeRangeBegin(ranges_[w].lastRegion);
  }

  homes_.resize(options_.homes);
  homeCursors_.resize(options_.homes);
  sigSeenRound_.assign(options_.homes, UINT32_MAX);
  regionBaselines_.resize(options_.regions);
  tallies_.resize(options_.workers);
  barrier_ = std::make_unique<RoundBarrier>(options_.workers);

  // The designated signature-origin home, drawn from the fleet seed.
  std::uint64_t s = options_.seed;
  originHome_ = static_cast<std::uint32_t>(splitmix64(s) % options_.homes);
}

std::size_t Fleet::homeRangeBegin(std::size_t region) const {
  return region * options_.homes / options_.regions;
}

std::size_t Fleet::homeRangeEnd(std::size_t region) const {
  return homeRangeBegin(region + 1);
}

void Fleet::buildHomes(std::size_t w) {
  const WorkerRange& range = ranges_[w];
  // The shared baseline content of every region: a few pre-loaded signature
  // activations plus inert configuration rules, all from the pseudo-creator
  // "baseline". The novel signature under test is deliberately absent.
  std::vector<ids::Knowgget> baseline;
  baseline.reserve(kBaselineEntries);
  for (std::size_t i = 0; i < kBaselineEntries; ++i) {
    ids::Knowgget k;
    k.creator = "baseline";
    if (i < 4) {
      k.label = signatureLabel(static_cast<std::uint8_t>(i));
      k.value = "true";
    } else {
      k.label = "BaselineRule." + std::to_string(i);
      k.value = "enabled";
    }
    baseline.push_back(std::move(k));
  }

  for (std::size_t r = range.firstRegion; r < range.lastRegion; ++r) {
    std::shared_ptr<const ids::BaselineSegment> segment;
    if (options_.shareBaseline) {
      segment = std::make_shared<ids::BaselineSegment>(baseline);
      regionBaselines_[r] = segment;
    }
    for (std::size_t h = homeRangeBegin(r); h < homeRangeEnd(r); ++h) {
      const HomeProfile profile = sampleHome(
          options_.seed, static_cast<std::uint32_t>(h), originHome_,
          kSignatureId);
      homes_[h] = std::make_unique<HomeNode>(static_cast<std::uint32_t>(h),
                                             profile, options_.seed, segment);
      if (!options_.shareBaseline) {
        // Naive memory model: every home holds a private copy of the
        // baseline in its overlay — the per-home cost bench_fleet compares
        // the CoW model against.
        for (const ids::Knowgget& k : baseline) {
          homes_[h]->applyRemote(k);
        }
      }
    }
  }
}

void Fleet::workerMain(std::size_t w) {
  buildHomes(w);
  barrier_->arriveAndWait({});  // every home exists before the first round

  const WorkerRange& range = ranges_[w];
  WorkerTally& tally = tallies_[w];
  std::vector<ids::Knowgget> published;

  while (true) {
    const Phase phase = phase_;  // ordered by the barrier mutex
    if (phase == Phase::kDone) break;

    if (phase == Phase::kRun) {
      const std::uint32_t round = round_;
      const SimTime now = static_cast<SimTime>(round + 1) * kRoundQuantum;
      const bool pullGlobal = round % options_.globalPullEvery == 0;
      const bool syncRegion = (round + 1) % options_.regionSyncEvery == 0;
      for (std::size_t r = range.firstRegion; r < range.lastRegion; ++r) {
        if (pullGlobal) exchange_->pullGlobalIntoRegion(r);
        for (std::size_t h = homeRangeBegin(r); h < homeRangeEnd(r); ++h) {
          HomeNode& home = *homes_[h];
          exchange_->pullRegionIntoHome(
              r, homeCursors_[h], [&](const TierItem& item) {
                if (item.knowgget.creator == home.kb().selfId()) return;
                home.applyRemote(item.knowgget);
                if (sigSeenRound_[h] == UINT32_MAX &&
                    home.knowsSignature(kSignatureId)) {
                  sigSeenRound_[h] = round;
                }
              });
          published.clear();
          const HomeNode::StepStats st = home.step(round, now, published);
          tally.packets += st.packets;
          tally.alerts += st.alerts;
          if (st.learned) {
            sigSeenRound_[h] = round;
            tally.learnedRound = std::min(tally.learnedRound, round);
          }
          for (const ids::Knowgget& k : published) {
            exchange_->publishFromHome(h, r, k, now);
          }
        }
        if (syncRegion) exchange_->syncRegion(r);
      }
    } else if (phase == Phase::kFinish) {
      for (std::size_t h = range.firstHome; h < range.lastHome; ++h) {
        exchange_->finishChild(h, homes_[h]->ownCollective());
      }
    } else if (phase == Phase::kApplyFinals) {
      // Downward reconciliation: drain what is left of the region logs
      // (exact missed accounting), then apply the converged global snapshot
      // to every owned home.
      const auto& snapshot = exchange_->globalSnapshot();
      for (std::size_t r = range.firstRegion; r < range.lastRegion; ++r) {
        for (std::size_t h = homeRangeBegin(r); h < homeRangeEnd(r); ++h) {
          HomeNode& home = *homes_[h];
          exchange_->pullRegionIntoHome(
              r, homeCursors_[h], [&](const TierItem& item) {
                if (item.knowgget.creator == home.kb().selfId()) return;
                home.applyRemote(item.knowgget);
              });
          for (const auto& [key, k] : snapshot) {
            if (k.creator == home.kb().selfId()) continue;
            home.applyRemote(k);
          }
          exchange_->chargeRegionLogMissed(r, homeCursors_[h].missed);
        }
      }
    }

    barrier_->arriveAndWait([this] { completeRound(); });
  }
}

void Fleet::completeRound() {
  switch (phase_) {
    case Phase::kRun: {
      const bool last = round_ + 1 >= options_.rounds;
      if ((round_ + 1) % options_.globalSyncEvery == 0 || last) {
        exchange_->syncGlobal();
      }
      ++round_;
      if (last) phase_ = Phase::kFinish;
      break;
    }
    case Phase::kFinish:
      exchange_->reconcile();
      phase_ = Phase::kApplyFinals;
      break;
    case Phase::kApplyFinals:
      phase_ = Phase::kDone;
      break;
    case Phase::kDone:
      break;
  }
}

void Fleet::run() {
  if (ran_) return;
  ran_ = true;

  std::vector<std::thread> pool;
  pool.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    pool.emplace_back([this, w] { workerMain(w); });
  }
  for (std::thread& t : pool) t.join();

  for (const WorkerTally& tally : tallies_) {
    stats_.packetsProcessed += tally.packets;
    stats_.alertsRaised += tally.alerts;
    activationRound_ = std::min(activationRound_, tally.learnedRound);
  }
  stats_.exchange = exchange_->stats();

  for (const auto& home : homes_) {
    stats_.homeHeapBytes += home->memoryBytes();
  }
  for (const auto& segment : regionBaselines_) {
    if (segment) stats_.baselineBytes += segment->memoryBytes();
  }

  PropagationReport& rep = stats_.propagation;
  rep.originHome = originHome_;
  rep.homesTotal = options_.homes;
  rep.activated = activationRound_ != UINT32_MAX;
  rep.activationRound = rep.activated ? activationRound_ : 0;
  if (rep.activated) {
    std::uint64_t lagSum = 0;
    for (std::size_t h = 0; h < options_.homes; ++h) {
      if (sigSeenRound_[h] == UINT32_MAX) continue;
      ++rep.homesObserved;
      const std::uint32_t lag = sigSeenRound_[h] - activationRound_;
      lagSum += lag;
      rep.maxLagRounds = std::max(rep.maxLagRounds, lag);
    }
    if (rep.homesObserved > 0) {
      rep.meanLagRounds =
          static_cast<double>(lagSum) / static_cast<double>(rep.homesObserved);
    }
    rep.maxLagVirtual = static_cast<SimTime>(rep.maxLagRounds) * kRoundQuantum;
  }
}

std::uint32_t Fleet::stalenessBoundRounds() const {
  // One regionSyncEvery wait to leave the origin's region, one
  // globalSyncEvery wait through the global tier, one globalPullEvery wait
  // into the destination region; the destination home pulls the region log
  // in that same round. The exact worst case is the sum minus two — the sum
  // keeps a deliberate safety margin of two rounds.
  return options_.regionSyncEvery + options_.globalSyncEvery +
         options_.globalPullEvery;
}

std::vector<ids::Knowgget> Fleet::homeCollectiveView(std::size_t h) const {
  return homes_[h]->collectiveView();
}

}  // namespace kalis::fleet
