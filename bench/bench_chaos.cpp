// Chaos-layer cost and resilience bench (DESIGN.md §9): quantifies
//
//   1. the overhead of the fault-injection hooks themselves — an installed
//      all-zero FaultPlan must cost (near) nothing versus no injector at
//      all, since the zero-plan transparency guarantee is what lets CI wrap
//      every run in chaos instrumentation unconditionally;
//   2. detection degradation versus injected link-fault severity on the
//      ICMP-flood reference scenario (none / light / heavy presets);
//   3. pipeline throughput under ingest stalls at 1 and 4 workers.
//
//   ./bench_chaos [repeats]
//
// Emits BENCH_chaos.json next to the binary.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "scenarios/chaos_workload.hpp"
#include "scenarios/scenarios.hpp"

using namespace kalis;

namespace {

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

struct ScenarioRow {
  std::string name;
  double wallSec = 0;
  double detectionRate = 0;
  double accuracy = 0;
  std::size_t alerts = 0;
  std::uint64_t packetsSniffed = 0;
};

ScenarioRow benchScenario(const std::string& name,
                          const chaos::FaultPlan* plan, int repeats) {
  ScenarioRow row;
  row.name = name;
  const double t0 = nowSec();
  for (int i = 0; i < repeats; ++i) {
    const scenarios::ScenarioResult result = scenarios::evaluate(
        scenarios::SystemKind::kKalis,
        scenarios::captureIcmpFlood(42 + static_cast<std::uint64_t>(i),
                                    plan));
    row.detectionRate = result.detectionRate();
    row.accuracy = result.accuracy();
    row.alerts = result.alerts.size();
    row.packetsSniffed = result.packetsSniffed;
  }
  row.wallSec = (nowSec() - t0) / repeats;
  return row;
}

struct PipelineRow {
  std::string name;
  std::size_t workers = 0;
  double wallSec = 0;
  double pps = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::size_t alerts = 0;
};

PipelineRow benchPipeline(const std::string& name,
                          const chaos::FaultPlan* plan, std::size_t workers,
                          int repeats) {
  PipelineRow row;
  row.name = name;
  row.workers = workers;
  const double t0 = nowSec();
  std::uint64_t fed = 0;
  for (int i = 0; i < repeats; ++i) {
    const chaos::RunOutput out = scenarios::runTraceReplayWorkload(
        21 + static_cast<std::uint64_t>(i), plan, workers);
    fed = out.packetsFed;
    row.processed = out.pipelineStats.processed;
    row.dropped = out.pipelineStats.dropped();
    row.alerts = out.alerts.size();
  }
  row.wallSec = (nowSec() - t0) / repeats;
  row.pps = row.wallSec > 0 ? static_cast<double>(fed) / row.wallSec : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats =
      argc > 1 ? static_cast<int>(std::strtol(argv[1], nullptr, 10)) : 3;

  const chaos::FaultPlan zero;  // all knobs off; injector still installed
  const chaos::FaultPlan light = preset("light");
  const chaos::FaultPlan heavy = preset("heavy");
  const chaos::FaultPlan stallLight = preset("stall-batches=8,stall-us=100");
  const chaos::FaultPlan stallHeavy = preset("stall-batches=2,stall-us=800");

  std::printf("bench_chaos: %d repeats, hardware_concurrency=%u\n\n", repeats,
              std::thread::hardware_concurrency());

  // 1+2: hook overhead and detection vs severity on the reference scenario.
  std::vector<ScenarioRow> scen;
  scen.push_back(benchScenario("no_injector", nullptr, repeats));
  scen.push_back(benchScenario("zero_plan", &zero, repeats));
  scen.push_back(benchScenario("light", &light, repeats));
  scen.push_back(benchScenario("heavy", &heavy, repeats));

  const double baseWall = scen.front().wallSec;
  std::printf("%-14s %10s %10s %10s %8s %8s\n", "icmp_flood", "wall_sec",
              "overhead", "det_rate", "accuracy", "alerts");
  for (const ScenarioRow& r : scen) {
    std::printf("%-14s %10.4f %9.1f%% %10.3f %8.3f %8zu\n", r.name.c_str(),
                r.wallSec,
                baseWall > 0 ? (r.wallSec / baseWall - 1.0) * 100.0 : 0.0,
                r.detectionRate, r.accuracy, r.alerts);
  }

  // 3: pipeline throughput under ingest stalls.
  std::vector<PipelineRow> pipe;
  for (std::size_t workers : {1u, 4u}) {
    pipe.push_back(benchPipeline("no_stalls_w" + std::to_string(workers),
                                 nullptr, workers, repeats));
    pipe.push_back(benchPipeline("stall_light_w" + std::to_string(workers),
                                 &stallLight, workers, repeats));
    pipe.push_back(benchPipeline("stall_heavy_w" + std::to_string(workers),
                                 &stallHeavy, workers, repeats));
  }

  std::printf("\n%-16s %8s %10s %12s %10s %8s %8s\n", "pipeline", "workers",
              "wall_sec", "pkts/sec", "processed", "dropped", "alerts");
  for (const PipelineRow& r : pipe) {
    std::printf("%-16s %8zu %10.4f %12.0f %10llu %8llu %8zu\n", r.name.c_str(),
                r.workers, r.wallSec, r.pps,
                static_cast<unsigned long long>(r.processed),
                static_cast<unsigned long long>(r.dropped), r.alerts);
  }

  const std::string jsonPath = "BENCH_chaos.json";
  std::ofstream out(jsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"chaos\",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"scenario_runs\": [\n";
  for (std::size_t i = 0; i < scen.size(); ++i) {
    const ScenarioRow& r = scen[i];
    out << "    {\"name\": \"" << r.name << "\", \"wall_sec\": " << r.wallSec
        << ", \"overhead_vs_no_injector\": "
        << (baseWall > 0 ? r.wallSec / baseWall - 1.0 : 0.0)
        << ", \"detection_rate\": " << r.detectionRate
        << ", \"accuracy\": " << r.accuracy << ", \"alerts\": " << r.alerts
        << ", \"packets_sniffed\": " << r.packetsSniffed << "}"
        << (i + 1 < scen.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pipeline_runs\": [\n";
  for (std::size_t i = 0; i < pipe.size(); ++i) {
    const PipelineRow& r = pipe[i];
    out << "    {\"name\": \"" << r.name << "\", \"workers\": " << r.workers
        << ", \"wall_sec\": " << r.wallSec << ", \"pps\": " << r.pps
        << ", \"processed\": " << r.processed << ", \"dropped\": " << r.dropped
        << ", \"alerts\": " << r.alerts << "}"
        << (i + 1 < pipe.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::fprintf(stderr, "bench_chaos: results written to %s\n",
               out ? jsonPath.c_str() : "<failed>");
  return 0;
}
