#include "metrics/metrics_export.hpp"

#include <cstdlib>

#include "kalis/kalis_node.hpp"
#include "sim/simulator.hpp"

namespace kalis::metrics {

obs::Registry collectMetrics(const ids::KalisNode& node,
                             const sim::Simulator& sim,
                             const std::string& runLabel) {
  obs::Registry reg;
  reg.setLabel("run", runLabel);
  reg.setLabel("node", node.id());
  node.modules().collectMetrics(reg, "kalis");
  node.kb().collectMetrics(reg, "kalis.kb");
  node.dataStore().collectMetrics(reg, "kalis.data_store");
  reg.counter("kalis.collective.sent", node.collectiveSent());
  reg.counter("kalis.collective.received", node.collectiveReceived());
  sim.collectMetrics(reg, "sim");
  return reg;
}

std::string metricsOutputPath(const std::string& defaultPath) {
  if (const char* env = std::getenv("KALIS_METRICS_OUT")) {
    if (*env != '\0') return env;
  }
  return defaultPath;
}

std::string exportMetricsJson(const ids::KalisNode& node,
                              const sim::Simulator& sim,
                              const std::string& runLabel,
                              const std::string& defaultPath) {
  const std::string path = metricsOutputPath(defaultPath);
  const obs::Registry reg = collectMetrics(node, sim, runLabel);
  if (!reg.writeJsonFile(path)) return "";
  return path;
}

}  // namespace kalis::metrics
