// Metrics export (the observability layer's cold path): snapshots every
// kalis::obs metric of a Kalis node and its simulator into one Registry and
// writes the JSON artifact that bench binaries, trace_replay and CI consume.
//
// Metric namespace layout (see DESIGN.md "Observability"):
//   kalis.*                engine totals and per-module detail
//   kalis.kb.*             Knowledge Base publish/subscribe activity
//   kalis.data_store.*     packet window and disk log
//   kalis.collective.*     collective knowgget exchange
//   sim.*                  event loop (dispatch count, queue depth, ratio)
#pragma once

#include <string>

#include "util/metrics.hpp"

namespace kalis::sim {
class Simulator;
}
namespace kalis::ids {
class KalisNode;
}

namespace kalis::metrics {

/// Snapshots node + simulator metrics, tagged with the run label and the
/// node id.
obs::Registry collectMetrics(const ids::KalisNode& node,
                             const sim::Simulator& sim,
                             const std::string& runLabel);

/// Output path resolution: $KALIS_METRICS_OUT overrides `defaultPath`.
std::string metricsOutputPath(const std::string& defaultPath);

/// collectMetrics + writeJsonFile in one call. Returns the path written,
/// or "" on I/O failure.
std::string exportMetricsJson(const ids::KalisNode& node,
                              const sim::Simulator& sim,
                              const std::string& runLabel,
                              const std::string& defaultPath);

}  // namespace kalis::metrics
