#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace kalis::pipeline {

Pipeline::Pipeline(Options options, EngineFactory factory)
    : options_(options), factory_(std::move(factory)) {
  if (options_.workers == 0) options_.workers = 1;
  shards_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.queueCapacity));
  }
  merge_.init(shards_.size());
  if (options_.knowledgeExchange) {
    KnowledgeExchange::Options xo;
    xo.shards = shards_.size();
    exchange_ = std::make_unique<KnowledgeExchange>(xo);
  }
}

Pipeline::~Pipeline() { stop(); }

void Pipeline::setAlertSink(std::function<void(const ids::Alert&)> sink) {
  merge_.sink = std::move(sink);
}

void Pipeline::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->worker = std::thread([this, i] { workerMain(i); });
  }
}

bool Pipeline::enqueue(const net::CapturedPacket& pkt) {
  Shard& shard = *shards_[shardOf(pkt, shards_.size())];
  const PacketRing::PushResult r = shard.ring.push(pkt, options_.policy);
  return r == PacketRing::PushResult::kOk ||
         r == PacketRing::PushResult::kOkBlocked ||
         r == PacketRing::PushResult::kDroppedOldest;
}

std::size_t Pipeline::enqueueBatch(const net::CapturedPacket* pkts,
                                   std::size_t count) {
  // Group by shard, preserving arrival order within each group (stable
  // bucket append), then push every group under one ring lock. Local
  // buffers keep the call safe from any number of concurrent producers.
  std::vector<std::vector<const net::CapturedPacket*>> groups(shards_.size());
  for (std::size_t i = 0; i < count; ++i) {
    groups[shardOf(pkts[i], shards_.size())].push_back(&pkts[i]);
  }
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    const PacketRing::BatchPushResult r = shards_[s]->ring.pushBatch(
        groups[s].data(), groups[s].size(), options_.policy);
    accepted += r.accepted;
  }
  return accepted;
}

void Pipeline::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->ring.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void Pipeline::workerMain(std::size_t shardIdx) {
  Shard& shard = *shards_[shardIdx];
  // The engine is created on its owning thread, so thread-ownership
  // checkers inside KnowledgeBase / DataStore bind to this worker.
  shard.engine = factory_(shardIdx);
  std::vector<const net::CapturedPacket*> pkts;
  pkts.reserve(options_.maxBatch);
  std::uint64_t batches = 0;
  for (;;) {
    const std::span<const PacketRing::Item> batch =
        shard.ring.popBatch(options_.maxBatch);
    if (batch.empty()) break;  // closed and drained
    // Hand the whole dequeue to the engine at once: the ring's consumer
    // batch holds the capture buffers until the next pop.
    pkts.clear();
    for (const PacketRing::Item& item : batch) pkts.push_back(&item.value);
    shard.engine->onBatch(pkts.data(), pkts.size());
    syncShardKnowledge(shardIdx, /*force=*/false);
    collectFrom(shardIdx, /*shardDone=*/false);
    // Injected slow-consumer stall (chaos): sleep after every Nth batch so
    // sustained producers push the ring into its drop policy.
    ++batches;
    if (options_.faults.enabled() &&
        batches % options_.faults.stallEveryBatches == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.faults.stallMicros));
    }
  }
  shard.engine->finish();
  if (exchange_) {
    // Shutdown reconciliation (knowledge_exchange.hpp): flush our pending
    // changes, deposit our final own collective set, then block until every
    // shard has reached the same point. publish() never blocks (drop-oldest
    // inboxes), so late publishers cannot deadlock against parked waiters;
    // anything evicted from an inbox while we slept is repaired by the
    // final-snapshot application below. One post-rendezvous drain picks up
    // all remaining in-flight items (each publish happened-before its
    // shard's finishShard).
    syncShardKnowledge(shardIdx, /*force=*/true);
    exchange_->finishShard(shardIdx, shard.engine->collectiveKnowledge(true));
    exchange_->waitAllFinished();
    syncShardKnowledge(shardIdx, /*force=*/true);
    exchange_->applyFinalFrom(shardIdx, [&shard](const ids::Knowgget& k) {
      return shard.engine->applyRemoteKnowledge(k);
    });
  }
  shard.finalKnowledge = shard.engine->collectiveKnowledge(false);
  collectFrom(shardIdx, /*shardDone=*/true);
  // Tear the engine down here too: shard state must be built, used and
  // destroyed by its one owning thread (KB/DataStore assert this).
  shard.engine.reset();
}

void Pipeline::syncShardKnowledge(std::size_t shardIdx, bool force) {
  Shard& shard = *shards_[shardIdx];
  // Always drain the engine's update buffer — even with the exchange off —
  // so it cannot grow without bound over a long run.
  std::vector<ids::Knowgget> updates = shard.engine->takeCollectiveUpdates();
  if (!exchange_) return;
  const SimTime now = shard.engine->watermark();
  for (const ids::Knowgget& k : updates) {
    exchange_->publish(shardIdx, k, now);
  }
  if (!force && now - shard.lastKnowledgeSync < options_.knowledgeSyncInterval) {
    return;
  }
  shard.lastKnowledgeSync = now;
  exchange_->drain(shardIdx, [&shard](const RemoteKnowgget& rk) {
    return shard.engine->applyRemoteKnowledge(rk.knowgget);
  });
}

void Pipeline::collectFrom(std::size_t shardIdx, bool shardDone) {
  Shard& shard = *shards_[shardIdx];
  // Pooled drain: the scratch vector (and the engine's internal buffer)
  // keep their capacity across batches, so a quiet batch costs zero
  // allocations here.
  shard.alertScratch.clear();
  shard.engine->drainAlerts(shard.alertScratch);
  merge_.offer(shardIdx, shard.alertScratch, shard.engine->watermark(),
               shardDone);
}

void Pipeline::MergeStage::init(std::size_t shards) {
  runs.resize(shards);
  done.assign(shards, 0);
  watermark.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    watermark.push_back(std::make_unique<std::atomic<SimTime>>(0));
  }
}

void Pipeline::MergeStage::offer(std::size_t shard,
                                 std::vector<ids::Alert>& alerts,
                                 SimTime shardWatermark, bool shardDone) {
  // The shard's worker is the only writer of its watermark slot, so a plain
  // release store publishes it; flushers read with acquire under the lock.
  std::atomic<SimTime>& wm = *watermark[shard];
  if (alerts.empty()) {
    // No withheld alerts from this shard, so publishing the watermark ahead
    // of the lock is safe: the engine promises no future alert sorts below
    // it. Quiet-batch fast path: nothing new here and nothing buffered
    // anywhere means no flush can release an alert — skip the merge lock
    // entirely. (If another shard buffers concurrently, its own offer
    // flushes, and it either sees our watermark store or catches up on its
    // next batch.)
    if (shardWatermark > wm.load(std::memory_order_relaxed)) {
      wm.store(shardWatermark, std::memory_order_release);
    }
    if (!shardDone && pending.load(std::memory_order_acquire) == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    if (shardDone) done[shard] = 1;
    flushLocked();
    return;
  }
  std::lock_guard<std::mutex> lock(mu);
  ShardRun& dst = runs[shard];
  // Engines emit alerts in nondecreasing time order (PacketEngine
  // contract), which is what makes the run-merge equivalent to the old
  // per-alert heap; cheap debug check at the batch seam.
  assert(dst.empty() || dst.run.back().time <= alerts.front().time);
  if (dst.empty() && !dst.run.empty()) {
    dst.run.clear();  // fully released: recycle capacity
    dst.head = 0;
  }
  for (ids::Alert& alert : alerts) {
    assert(&alert == &alerts.front() || (&alert - 1)->time <= alert.time);
    dst.run.push_back(std::move(alert));
  }
  pending.fetch_add(alerts.size(), std::memory_order_release);
  // Publish the watermark only now that the alerts it vouches for are
  // buffered. Storing it before the append would let a flusher already
  // holding the lock treat this shard as having nothing below the new
  // watermark and release another shard's later alert ahead of ours.
  if (shardWatermark > wm.load(std::memory_order_relaxed)) {
    wm.store(shardWatermark, std::memory_order_release);
  }
  if (shardDone) done[shard] = 1;
  flushLocked();
}

void Pipeline::MergeStage::flushLocked() {
  // An alert is releasable once no live shard can still produce one that
  // sorts before it: strictly below the minimum live watermark (a shard at
  // watermark t may still emit alerts stamped exactly t).
  SimTime minLive = kSimTimeMax;
  bool allDone = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (done[i]) continue;
    allDone = false;
    minLive = std::min(minLive, watermark[i]->load(std::memory_order_acquire));
  }
  std::uint64_t released = 0;
  for (;;) {
    // k-way merge step: smallest (time, shard) among the run heads. Within
    // a shard the run is already (time, seq)-sorted, so this reproduces the
    // old heap's (time, shard, seq) total order exactly.
    ShardRun* best = nullptr;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ShardRun& r = runs[i];
      if (r.empty()) continue;
      if (!best || r.front().time < best->front().time) best = &r;
    }
    if (!best) break;
    if (!allDone && best->front().time >= minLive) break;
    emitted.push_back(std::move(best->run[best->head]));
    ++best->head;
    ++released;
    if (sink) sink(emitted.back());
  }
  if (released > 0) {
    pending.fetch_sub(released, std::memory_order_release);
    emittedCount.fetch_add(released, std::memory_order_release);
  }
}

Pipeline::Stats Pipeline::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    const PacketRing::Stats rs = shard->ring.stats();
    s.enqueued += rs.pushed;
    s.processed += rs.popped;
    s.droppedNewest += rs.droppedNewest;
    s.droppedOldest += rs.droppedOldest;
    s.blockedPushes += rs.blockedPushes;
  }
  s.alertsEmitted = merge_.emittedCount.load(std::memory_order_acquire);
  if (exchange_) {
    const KnowledgeExchange::Stats xs = exchange_->stats();
    s.knowledgePublished = xs.published;
    s.knowledgeApplied = xs.applied;
    s.knowledgeRejected = xs.rejected;
    s.knowledgeDroppedInFlight = xs.droppedInFlight;
  }
  return s;
}

void Pipeline::collectMetrics(obs::Registry& reg,
                              const std::string& prefix) const {
  const Stats s = stats();
  reg.counter(prefix + ".shards", shards_.size());
  reg.counter(prefix + ".enqueued", s.enqueued);
  reg.counter(prefix + ".processed", s.processed);
  reg.counter(prefix + ".dropped_newest", s.droppedNewest);
  reg.counter(prefix + ".dropped_oldest", s.droppedOldest);
  reg.counter(prefix + ".blocked_pushes", s.blockedPushes);
  reg.counter(prefix + ".alerts_emitted", s.alertsEmitted);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->ring.collectMetrics(
        reg, prefix + ".shard." + std::to_string(i) + ".ring");
  }
  if (exchange_) exchange_->collectMetrics(reg, prefix + ".exchange");
}

}  // namespace kalis::pipeline
