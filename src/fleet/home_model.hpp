// Per-home simulation model of kalis::fleet (DESIGN.md §11).
//
// The paper deploys one Kalis per smart-home hub; the fleet layer simulates
// 100k+ of those deployments concurrently on one machine. At that scale a
// full KalisNode per home (simulator + data store + module library) costs
// tens of kilobytes of live state each — so every home instead hosts a
// HomeNode: the *knowledge* plane of a Kalis box (a real ids::KnowledgeBase
// with the shared-baseline CoW overlay) coupled to a statistical traffic and
// detection model sampled from one seeded distribution.
//
// What a home models per scheduling round:
//   - a topology draw (device count) and a traffic-rate draw, fixed at
//     sampling time from splitmix64(fleetSeed, homeIndex) — every run of the
//     same fleet seed rebuilds the identical fleet;
//   - `packetsPerRound` synthetic packet events: per-device counters and a
//     flood-watchdog-style per-round rate check (the cheap stand-in for the
//     module library's per-packet work);
//   - the signature-activation story of the paper's adaptability claim: a
//     small fraction of homes receive attack traffic for an attack whose
//     signature is NOT in the baseline KB. One designated origin home can
//     *learn* the signature (the anomaly-module stand-in) and activates the
//     collective knowgget "Signature.<id>" — which the hierarchical exchange
//     then propagates fleet-wide; every other attacked home starts detecting
//     only once the knowgget reaches its KB (the measured
//     detection-propagation latency).
//
// Memory discipline: a HomeNode owns no heap beyond its KnowledgeBase
// overlay (empty unless the home diverged from the region baseline) and the
// KB's self-id string. Everything else is inline PODs — the budget that
// makes 100k homes fit in hundreds of megabytes, not tens of gigabytes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kalis/knowledge.hpp"
#include "util/types.hpp"

namespace kalis::fleet {

/// splitmix64 — the fleet's only random primitive: one 64-bit draw per call,
/// seedable from (fleetSeed, homeIndex) so homes are independent streams.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Sampled, immutable per-home configuration. Packed: lives inline in every
/// home at fleet scale.
struct HomeProfile {
  std::uint16_t packetsPerRound = 0;  ///< traffic-rate draw
  std::uint8_t devices = 0;           ///< topology draw
  std::uint8_t signatureId = 0;       ///< attack signature this home would see
  std::uint16_t attackStartRound = 0; ///< first round with attack traffic
  bool attacked = false;              ///< receives attack traffic at all
  bool canLearn = false;              ///< the designated signature-origin home
};

/// Hard cap on per-home devices: keeps the per-device counters inline.
inline constexpr std::size_t kMaxDevices = 16;

/// Samples home `homeIndex` of the fleet from the one seeded home
/// distribution (home_model.cpp). `originHome` is the single home allowed to
/// learn the novel signature (it is forced to be attacked).
HomeProfile sampleHome(std::uint64_t fleetSeed, std::uint32_t homeIndex,
                       std::uint32_t originHome, std::uint8_t signatureId);

/// The lightweight per-home Kalis node: knowledge plane + traffic model.
/// Thread confinement mirrors KalisNode: a HomeNode is constructed, stepped
/// and reconciled on exactly one fleet worker thread.
class HomeNode {
 public:
  struct StepStats {
    std::uint32_t packets = 0;      ///< packet events processed this step
    std::uint32_t alerts = 0;       ///< signature detections raised
    bool learned = false;           ///< activated the signature this step
  };

  /// `baseline` may be null (naive mode: the caller materializes the
  /// baseline into the overlay instead — the memory model bench_fleet
  /// compares against).
  HomeNode(std::uint32_t index, HomeProfile profile, std::uint64_t fleetSeed,
           std::shared_ptr<const ids::BaselineSegment> baseline);

  ids::KnowledgeBase& kb() { return kb_; }
  const ids::KnowledgeBase& kb() const { return kb_; }

  /// Advances the home by one scheduling round at virtual time `now`.
  /// Changed collective knowggets (signature activations) are appended to
  /// `outPublished` for the hierarchical exchange.
  StepStats step(std::uint32_t round, SimTime now,
                 std::vector<ids::Knowgget>& outPublished);

  /// Applies a knowgget arriving from the region broadcast log through the
  /// KB's one-way putRemote rule; refreshes the cached signature mask on
  /// acceptance. Returns KnowledgeBase::putRemote's verdict.
  bool applyRemote(const ids::Knowgget& k);

  /// True once "Signature.<id>" for this home's attack is active (baseline,
  /// learned locally, or received from the fleet).
  bool knowsSignature(std::uint8_t id) const {
    return (knownSignatures_ & (1ull << (id & 63))) != 0;
  }

  std::uint64_t packetsProcessed() const { return packetsProcessed_; }
  std::uint32_t alertsRaised() const { return alertsRaised_; }

  /// Collective knowggets visible to this home (own + applied remote) —
  /// the convergence set of the reconciliation tests.
  std::vector<ids::Knowgget> collectiveView() const;

  /// Own collective knowggets (creator == this home) for the shutdown
  /// reconciliation deposit, mirroring KnowledgeExchange::finishShard.
  std::vector<ids::Knowgget> ownCollective() const;

  /// Live heap bytes this home pays for beyond sizeof(HomeNode): the KB
  /// overlay plus the self-id string. The shared BaselineSegment is
  /// excluded — it is counted once per region.
  std::size_t memoryBytes() const;

 private:
  struct BufferSink final : ids::CollectiveSink {
    void onCollective(const ids::Knowgget& k) override {
      pending.push_back(k);
    }
    std::vector<ids::Knowgget> pending;
  };

  void refreshSignature(const ids::Knowgget& k);

  HomeProfile profile_;
  std::uint64_t rng_ = 0;
  std::uint64_t knownSignatures_ = 0;  ///< bitmask over signature ids 0..63
  std::uint64_t packetsProcessed_ = 0;
  std::uint32_t alertsRaised_ = 0;
  std::uint32_t attackSeen_ = 0;
  bool learned_ = false;
  std::array<std::uint16_t, kMaxDevices> deviceCounts_{};  ///< per-round
  ids::KnowledgeBase kb_;
  BufferSink sink_;
};

/// "Signature.<id>" — the label of the collective signature-activation
/// knowgget (paper: a signature module switched on by new knowledge).
std::string signatureLabel(std::uint8_t id);

/// Number of attack packets the origin home must observe before it learns
/// the signature (the anomaly-module stand-in's evidence threshold).
inline constexpr std::uint32_t kLearnThreshold = 24;

}  // namespace kalis::fleet
