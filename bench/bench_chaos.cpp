// Chaos-layer resilience bench (DESIGN.md §9): detection degradation versus
// injected link-fault severity on the ICMP-flood reference scenario (no
// injector / light / heavy presets). Every figure is a deterministic
// function of the scenario seed and the fault plan.
//
//   ./bench_chaos
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos/fault_plan.hpp"
#include "scenarios/scenarios.hpp"

using namespace kalis;

namespace {

chaos::FaultPlan preset(const std::string& spec) {
  std::string error;
  const auto plan = chaos::FaultPlan::parse(spec, &error);
  if (!plan) {
    std::fprintf(stderr, "bench_chaos: bad preset '%s': %s\n", spec.c_str(),
                 error.c_str());
    std::exit(1);
  }
  return *plan;
}

void printRow(const char* name, const chaos::FaultPlan* plan) {
  const scenarios::ScenarioResult result = scenarios::evaluate(
      scenarios::SystemKind::kKalis, scenarios::captureIcmpFlood(42, plan));
  std::printf("%-14s %10.3f %8.3f %8zu %10llu\n", name, result.detectionRate(),
              result.accuracy(), result.alerts.size(),
              static_cast<unsigned long long>(result.packetsSniffed));
}

}  // namespace

int main() {
  const chaos::FaultPlan light = preset("light");
  const chaos::FaultPlan heavy = preset("heavy");
  std::printf("%-14s %10s %8s %8s %10s\n", "icmp_flood", "det_rate",
              "accuracy", "alerts", "sniffed");
  printRow("no_injector", nullptr);
  printRow("light", &light);
  printRow("heavy", &heavy);
  return 0;
}
