// kalis::chaos — deterministic fault injection (DESIGN.md §9).
//
// A FaultPlan is the complete description of what to break, at two seams:
// link level (applied by chaos::LinkChaos through the sim::World injector
// hook) and ingestion level (applied by kalis::pipeline worker stalls). All
// randomness flows from FaultPlan::seed through a dedicated chaos Rng, so a
// plan replayed against the same scenario seed reproduces the exact same
// fault sequence — the property differential verification
// (chaos/alert_diff.hpp) rests on.
//
// The all-zero (default) plan is a strict no-op: installing it must leave
// every run byte-for-byte identical to an uninstrumented one (asserted in
// tests/chaos_test.cpp via SIEM JSON).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "pipeline/pipeline.hpp"
#include "util/types.hpp"

namespace kalis::chaos {

struct FaultPlan {
  /// Chaos stream seed — independent of the scenario seed so the same fault
  /// sequence can be replayed against different traffic and vice versa.
  std::uint64_t seed = 0xc4a05;

  // --- link level (sim::World via chaos::LinkChaos) -------------------------
  /// Probability that a delivery starts a loss burst on its directed link.
  double lossStart = 0.0;
  /// Mean deliveries lost per burst (geometric; 1 = independent losses).
  double lossBurstLen = 1.0;
  /// Probability that a transmission is delivered twice (link echo).
  double duplicateProb = 0.0;
  /// Probability that a transmission is delayed into the reorder window,
  /// letting later frames overtake it.
  double reorderProb = 0.0;
  /// Maximum extra delay for reordered transmissions.
  Duration reorderWindow = milliseconds(5);
  /// Probability that a transmission's frame gets bit-flip corrupted.
  double corruptProb = 0.0;
  /// 1..corruptBitsMax bits are flipped per corrupted frame.
  int corruptBitsMax = 3;
  /// Gaussian RSSI jitter (dB standard deviation) added per reception.
  double rssiJitterDb = 0.0;
  /// Mean uptime between injected node crashes (0 = crashes off). The IDS
  /// box itself is never crashed — chaos degrades the *observed* network.
  Duration crashMeanUptime = 0;
  /// How long a crashed node stays offline before it restarts.
  Duration crashDowntime = seconds(5);

  // --- ingestion level (kalis::pipeline) ------------------------------------
  /// Stall each shard worker after every Nth batch (0 = off).
  std::size_t stallEveryBatches = 0;
  /// Wall-clock microseconds per injected stall.
  std::uint64_t stallMicros = 0;

  /// True when every knob is at its neutral value (a strict no-op plan).
  bool zero() const;
  bool hasLinkFaults() const;

  pipeline::IngestFaults ingestFaults() const {
    return pipeline::IngestFaults{stallEveryBatches, stallMicros};
  }

  /// Parses "key=value,key=value" specs, e.g.
  ///   "loss=0.05,burst=4,dup=0.01,reorder=0.02,window-ms=5,corrupt=0.01,
  ///    bits=3,jitter=2.5,crash-s=30,down-s=5,stall-batches=8,stall-us=500,
  ///    seed=7"
  /// A leading preset name ("none", "light", "heavy") seeds the plan before
  /// the remaining overrides apply. Returns nullopt and fills `error` on a
  /// malformed spec.
  static std::optional<FaultPlan> parse(std::string_view spec,
                                        std::string* error = nullptr);

  /// Canonical "key=value,..." rendering of the non-neutral knobs
  /// (parse(describe()) round-trips).
  std::string describe() const;
};

}  // namespace kalis::chaos
