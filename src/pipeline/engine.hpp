// The detection-engine seam of kalis::pipeline.
//
// A PacketEngine is a shard-confined detection backend: the Pipeline
// constructs one per shard *on the worker thread that will own it* (via the
// EngineFactory), routes that shard's packets into it in enqueue order, and
// periodically collects its alerts for the ordered merge stage. Engines
// never see packets from other shards and are never called from two
// threads, so implementations need no locking.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "kalis/alert.hpp"
#include "kalis/knowledge.hpp"
#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::pipeline {

class PacketEngine {
 public:
  virtual ~PacketEngine() = default;

  /// Processes one packet. Packets arrive in per-source capture order.
  virtual void onPacket(const net::CapturedPacket& pkt) = 0;

  /// Processes one dequeued batch, in order. The pointed-to packets stay
  /// alive (and unmoved) for the whole call. The default loops onPacket,
  /// so batch boundaries never change an engine's output; override only to
  /// wrap a whole batch (e.g. to time it).
  virtual void onBatch(const net::CapturedPacket* const* pkts,
                       std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) onPacket(*pkts[i]);
  }

  /// Returns (and clears) the alerts raised since the previous call, in
  /// nondecreasing Alert::time order. Together with the watermark()
  /// promise below this makes the shard's alert stream sorted *across*
  /// calls too — each drain continues a single nondecreasing run — which
  /// the pipeline's merge stage relies on to treat per-shard buffers as
  /// pre-sorted runs instead of re-heapifying every alert.
  virtual std::vector<ids::Alert> takeAlerts() = 0;

  /// Pooling variant of takeAlerts(): appends the pending alerts to `out`
  /// (same order) and clears the internal buffer while keeping its capacity,
  /// so the steady-state alert path stops allocating. The Pipeline always
  /// drains through this entry point with a per-shard scratch vector.
  virtual void drainAlerts(std::vector<ids::Alert>& out) {
    std::vector<ids::Alert> fresh = takeAlerts();
    for (ids::Alert& a : fresh) out.push_back(std::move(a));
  }

  /// Completeness promise for the merge stage: no alert returned by a
  /// *future* takeAlerts() will carry time < watermark().
  virtual SimTime watermark() const = 0;

  /// End-of-stream, called exactly once after the last onPacket (e.g. to
  /// run out tick-driven detection windows).
  virtual void finish() {}

  // --- collective knowledge (optional; defaults model a knowledge-less
  // engine so non-Kalis backends and tests need not care) --------------------

  /// Returns (and clears) the collective knowggets this engine changed since
  /// the previous call. The Pipeline drains this at every batch boundary and
  /// hands the updates to the KnowledgeExchange (or discards them when the
  /// exchange is off, keeping the buffer bounded either way).
  virtual std::vector<ids::Knowgget> takeCollectiveUpdates() { return {}; }

  /// Offers one remote shard's knowgget to this engine's knowledge base.
  /// Returns whether it was accepted — implementations must enforce the
  /// one-way update rule (KnowledgeBase::putRemote). Called only from the
  /// owning worker thread.
  virtual bool applyRemoteKnowledge(const ids::Knowgget& k) {
    (void)k;
    return false;
  }

  /// Snapshot of the engine's collective knowggets: only those this engine
  /// created (`ownedOnly`, for the shutdown reconciliation deposit) or its
  /// full collective view including applied remote entries (for convergence
  /// checks).
  virtual std::vector<ids::Knowgget> collectiveKnowledge(bool ownedOnly) const {
    (void)ownedOnly;
    return {};
  }
};

/// Builds the engine for `shard`; invoked on the owning worker thread.
using EngineFactory =
    std::function<std::unique_ptr<PacketEngine>(std::size_t shard)>;

}  // namespace kalis::pipeline
