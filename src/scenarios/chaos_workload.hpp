// The trace_replay reference workload packaged for chaos::DiffRunner
// (DESIGN.md §9): capture a benign HomeWifi trace and a separate ICMP-flood
// run, splice them (KTRC round trip), and replay the merged trace through
// kalis::pipeline. The optional FaultPlan perturbs both capture worlds
// (link level) and the pipeline workers (ingestion level), so one plan
// exercises every chaos seam end to end.
#pragma once

#include <cstdint>

#include "chaos/diff_runner.hpp"
#include "scenarios/common.hpp"

namespace kalis::scenarios {

/// The workload's capture, also the one examples/trace_replay records: 70 s
/// of the WiFi home (HomeWifi) as a sniffer at the IDS spot hears it, with a
/// four-burst ICMP flood from 20 s when `withAttack`, under the optional
/// fault `plan`.
Capture captureHomeTrace(std::uint64_t seed, bool withAttack,
                         const chaos::FaultPlan* plan);

/// One full run through a Pipeline of `workers` threads; one worker is the
/// byte-reproducible reference. A null `plan` runs clean. The returned
/// output carries the SIEM lines plus exact fault tallies for accounted-loss
/// attribution.
chaos::RunOutput runTraceReplayWorkload(std::uint64_t seed,
                                        const chaos::FaultPlan* plan,
                                        std::size_t workers);

/// Binds `seed` for DiffRunner.
chaos::DiffRunner::Workload traceReplayWorkload(std::uint64_t seed);

}  // namespace kalis::scenarios
