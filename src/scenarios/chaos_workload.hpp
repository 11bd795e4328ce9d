// The trace_replay reference workload: capture a benign HomeWifi trace and a
// separate ICMP-flood run, splice them (KTRC round trip), and replay the
// merged trace through a Kalis engine. examples/trace_replay and the
// differential verification below (DESIGN.md §9) both take the recording
// and the engine from here. The optional FaultPlan perturbs both capture
// worlds (link level) and the pipeline workers (ingestion level), so one
// plan exercises every chaos seam end to end.
#pragma once

#include <cstddef>
#include <cstdint>

#include "chaos/alert_diff.hpp"
#include "pipeline/kalis_engine.hpp"
#include "scenarios/common.hpp"
#include "trace/trace_file.hpp"

namespace kalis::scenarios {

/// The workload's capture, also the one examples/trace_replay records: 70 s
/// of the WiFi home (HomeWifi) as a sniffer at the IDS spot hears it, with a
/// four-burst ICMP flood from 20 s when `withAttack`, under the optional
/// fault `plan`.
Capture captureHomeTrace(std::uint64_t seed, bool withAttack,
                         const chaos::FaultPlan* plan);

/// The workload's recorded input: a benign captureHomeTrace(seed) and an
/// attack run captureHomeTrace(seed + 1), merged by timestamp and
/// round-tripped through the KTRC on-disk format, as the Data Store's
/// log/replay path would do it.
struct TraceReplayRecording {
  Capture benign;
  Capture withAttack;             ///< its truth is the replay's ground truth
  std::size_t ktrcBytes = 0;      ///< size of the KTRC file
  trace::TraceReadResult replay;  ///< the merged trace as read back
};
TraceReplayRecording recordTraceReplay(std::uint64_t seed,
                                       const chaos::FaultPlan* plan);

/// The replay engine: simulator seed 99, the full standard library, clock
/// drained to 80 s after the last packet. A directly fed node built from
/// these options matches a one-worker pipeline byte for byte.
pipeline::KalisEngineOptions traceReplayEngineOptions();

/// One full run through a Pipeline of `workers` threads; one worker is the
/// byte-reproducible reference. A null `plan` runs clean. The returned
/// output carries the SIEM lines plus exact fault tallies for accounted-loss
/// attribution.
chaos::RunOutput runTraceReplayWorkload(std::uint64_t seed,
                                        const chaos::FaultPlan* plan,
                                        std::size_t workers);

/// Differential verification of `plan` on the workload of `seed`: the clean
/// one-worker run is the baseline, the faulted one-worker run is diffed
/// against it, and the faulted run on `workers` workers against that.
chaos::DiffReport diffTraceReplay(std::uint64_t seed,
                                  const chaos::FaultPlan& plan,
                                  std::size_t workers);

}  // namespace kalis::scenarios
