// kalis::pipeline — sharded multi-worker packet-ingestion engine with
// backpressure (DESIGN.md §7).
//
// Decouples packet capture from detection:
//
//   producers ──enqueue──▶ per-shard bounded MPSC rings ──▶ worker threads
//        (hash by link-layer source)        (batch dequeue)     │
//                                                               ▼
//                                                      shard PacketEngine
//                                                               │ alerts
//                                                               ▼
//                      timestamp-ordered merge ──▶ alert sink / SIEM export
//
// Sharding is by link-layer source address (pipeline/shard_key.hpp), so all
// per-device state — flood windows, watchdog counters, DataStore windows —
// stays on one worker and no detection structure needs a lock.
//
// The merge stage buffers each shard's alerts as an already-sorted run
// (engines emit in nondecreasing time order) and releases the smallest
// (time, shard) head only once every live shard's watermark has passed its
// timestamp, so the emitted stream is totally ordered — exactly the
// (time, shard, seq) order the original per-alert min-heap produced — and
// identical across runs regardless of thread interleaving. Quiet batches
// (no fresh alerts, nothing buffered anywhere) skip the merge lock
// entirely: the shard just publishes its watermark with one atomic store.
//
// Every shard runs on its own worker thread. A one-worker Pipeline under
// Backpressure::kBlock is the deterministic reference: whatever the batch
// size or ring capacity, its alert stream is byte-identical to feeding the
// shard's engine directly.
//
// With Options::knowledgeExchange on, shard engines additionally swap
// collective knowggets through a KnowledgeExchange at batch boundaries
// (knowledge_exchange.hpp, DESIGN.md §8), so shards share the paper's
// collective knowledge without any cross-thread access to a KnowledgeBase.
//
// Lifecycle: construct → (setAlertSink) → start() → enqueue()* → stop().
// stop() closes the rings, drains every queued packet (drain-on-shutdown),
// joins the workers and flushes the merge stage. A Pipeline is one-shot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/engine.hpp"
#include "pipeline/knowledge_exchange.hpp"
#include "pipeline/ring_buffer.hpp"
#include "pipeline/shard_key.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace kalis::pipeline {

/// Injected ingestion-level faults (kalis::chaos, DESIGN.md §9): wall-clock
/// worker stalls at batch boundaries that model a slow consumer and drive
/// the rings into their configured drop policy under sustained producers.
/// Zero values = off.
struct IngestFaults {
  std::size_t stallEveryBatches = 0;  ///< stall after every Nth batch (0=off)
  std::uint64_t stallMicros = 0;      ///< wall-clock microseconds per stall
  bool enabled() const { return stallEveryBatches > 0 && stallMicros > 0; }
};

struct Options {
  /// Worker threads (= shards). Clamped to >= 1.
  std::size_t workers = 4;
  std::size_t queueCapacity = 4096;  ///< ring slots per shard
  std::size_t maxBatch = 64;         ///< packets per worker dequeue
  Backpressure policy = Backpressure::kBlock;
  /// Cross-shard collective knowledge exchange (DESIGN.md §8). Off by
  /// default: shards then keep fully independent knowledge bases, exactly
  /// the pre-exchange behavior.
  bool knowledgeExchange = false;
  /// Minimum virtual-time spacing between exchange drains on a shard — the
  /// multi-worker analogue of KalisNode::Options::peerSyncLatency. Remote
  /// knowggets are applied at the first batch boundary after the shard's
  /// clock advances past this interval, bounding staleness to roughly
  /// (interval + one batch span). Publishes are never delayed.
  Duration knowledgeSyncInterval = milliseconds(10);
  /// Injected consumer stalls (off by default; see IngestFaults).
  IngestFaults faults;
};

class Pipeline {
 public:
  Pipeline(Options options, EngineFactory factory);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Receives every merged alert, in nondecreasing time order. The sink
  /// runs on worker threads, but never concurrently (serialized under the
  /// merge lock). Set before start().
  void setAlertSink(std::function<void(const ids::Alert&)> sink);

  /// Spawns one worker per shard; each builds its own engine. Call once.
  void start();
  bool started() const { return started_; }

  /// Hash-routes the packet to its shard. Returns true iff this packet was
  /// accepted (under kDropOldest an *older* packet may have been evicted —
  /// see droppedOldest()). Callable from any thread, also before start()
  /// (packets buffer in the rings).
  bool enqueue(const net::CapturedPacket& pkt);

  /// Batched enqueue: hash-groups `count` packets by shard and pushes each
  /// group with ONE ring lock acquisition and at most one worker wake-up
  /// (BoundedRing::pushBatch) — the producer-side fast path for capture
  /// bursts and for recorded traffic, which comes in as a trace::Trace
  /// handed over whole or in chunks. Per-packet semantics (acceptance,
  /// eviction order, loss tallies, per-source FIFO) are identical to calling
  /// enqueue() in order. Returns the number of packets accepted. Same
  /// threading contract as enqueue().
  std::size_t enqueueBatch(const net::CapturedPacket* pkts, std::size_t count);

  /// Drains every queued packet, joins the workers, runs engine finish()
  /// and flushes the merge stage. Idempotent.
  void stop();

  /// All merged alerts, in emission order. Stable once stop() returned.
  const std::vector<ids::Alert>& alerts() const { return merge_.emitted; }

  std::size_t shardCount() const { return shards_.size(); }
  const Options& options() const { return options_; }

  /// One coherent counter snapshot (exact while producers are quiescent) —
  /// replaces the per-counter getters below.
  struct Stats {
    std::uint64_t enqueued = 0;       ///< packets accepted into rings
    std::uint64_t processed = 0;      ///< packets handed to engines
    std::uint64_t droppedNewest = 0;  ///< rejected incoming packets
    std::uint64_t droppedOldest = 0;  ///< evicted queued packets
    std::uint64_t blockedPushes = 0;  ///< pushes that waited for room
    std::uint64_t alertsEmitted = 0;  ///< alerts released by the merge stage
    // Knowledge exchange (all zero when Options::knowledgeExchange is off).
    std::uint64_t knowledgePublished = 0;  ///< collective changes handed over
    std::uint64_t knowledgeApplied = 0;    ///< remote knowggets accepted
    std::uint64_t knowledgeRejected = 0;   ///< refused by the one-way rule
    std::uint64_t knowledgeDroppedInFlight = 0;  ///< inbox evictions
    std::uint64_t dropped() const { return droppedNewest + droppedOldest; }
  };
  Stats stats() const;

  /// Collective knowggets visible to `shard`'s engine when it finished
  /// (its own plus applied remote entries). Populated by stop(); empty for
  /// engines without knowledge.
  const std::vector<ids::Knowgget>& collectiveKnowledge(std::size_t shard) const {
    return shards_[shard]->finalKnowledge;
  }

  /// Bounded-staleness watermark: highest publisher clock applied into
  /// `shard` so far. 0 when the exchange is off.
  SimTime knowledgeWatermark(std::size_t shard) const {
    return exchange_ ? exchange_->appliedWatermark(shard) : 0;
  }

  /// Appends pipeline + per-shard ring metrics under `prefix`
  /// (e.g. "pipeline"). Call while quiescent (before start or after stop).
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}
    PacketRing ring;
    std::unique_ptr<PacketEngine> engine;
    std::thread worker;
    /// Engine clock at the last exchange drain (sync-interval gate).
    SimTime lastKnowledgeSync = 0;
    /// Engine's final collective view, captured just before teardown.
    std::vector<ids::Knowgget> finalKnowledge;
    /// Reused drain buffer for collectFrom (owning worker only).
    std::vector<ids::Alert> alertScratch;
  };

  /// Timestamp-ordered, watermark-gated alert merge over per-shard runs.
  ///
  /// Each shard appends its drained alerts — already sorted, since engines
  /// emit in nondecreasing time order — to a private run buffer; the flush
  /// is a k-way merge of the run heads, releasing the smallest
  /// (time, shard) while it sorts strictly below every live shard's
  /// watermark. Within a shard the run IS seq order, so the emitted stream
  /// equals the old per-alert (time, shard, seq) heap order while touching
  /// each alert O(shards) instead of O(log pending) heap operations — and
  /// the common quiet batch (no fresh alerts, nothing buffered) never takes
  /// the lock at all: it publishes the shard watermark with one relaxed-
  /// free atomic store and returns.
  struct MergeStage {
    /// One shard's buffered run: FIFO window [head, run.size()).
    struct ShardRun {
      std::vector<ids::Alert> run;
      std::size_t head = 0;
      bool empty() const { return head >= run.size(); }
      const ids::Alert& front() const { return run[head]; }
    };
    std::mutex mu;
    std::vector<ShardRun> runs;  ///< per-shard sorted alert runs (mu)
    /// Per-shard watermark: written by the owning worker (release), read by
    /// whichever thread flushes. Stored via unique_ptr — atomics don't move.
    std::vector<std::unique_ptr<std::atomic<SimTime>>> watermark;
    /// Total buffered-but-unreleased alerts across all runs; lets quiet
    /// batches skip the lock when there is provably nothing to flush.
    std::atomic<std::uint64_t> pending{0};
    std::atomic<std::uint64_t> emittedCount{0};
    std::vector<char> done;  ///< mu
    std::vector<ids::Alert> emitted;
    std::function<void(const ids::Alert&)> sink;

    void init(std::size_t shards);

    /// Moves the drained alerts into `shard`'s run; `alerts` is left with
    /// moved-from elements (the caller clears and reuses it — pooled
    /// scratch). Lock-free when `alerts` is empty, nothing is buffered
    /// anywhere and the shard is not finishing.
    void offer(std::size_t shard, std::vector<ids::Alert>& alerts,
               SimTime shardWatermark, bool shardDone);

   private:
    void flushLocked();
  };

  void workerMain(std::size_t shard);
  void collectFrom(std::size_t shard, bool shardDone);
  /// Publishes the shard engine's pending collective changes into the
  /// exchange and — when forced or the sync interval elapsed — applies
  /// queued remote knowggets. Called at batch boundaries on the owning
  /// worker.
  void syncShardKnowledge(std::size_t shard, bool force);

  Options options_;
  EngineFactory factory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<KnowledgeExchange> exchange_;  ///< null when exchange off
  MergeStage merge_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace kalis::pipeline
