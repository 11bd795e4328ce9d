// Ingestion-pipeline throughput: packets/sec through the sharded
// multi-worker pipeline at 1/2/4/8 workers versus the synchronous
// single-node path, on a synthetic multi-device WiFi trace. The block
// policy is used throughout, so every configuration must be lossless.
// Every worker sweep runs twice — with the cross-shard knowledge exchange
// off and on — and the on/off throughput delta is printed per worker count.
//
// The producer feeds the pipeline through enqueueBatch() in chunks of
// kProducerChunk packets, so the per-shard ring lock and worker wake-up are
// amortized across the chunk — the intended production ingest pattern.
//
// Two derived metrics land in the JSON next to raw pps:
//   speedup              pps / synchronous pps (CI's multicore floor: at
//                        least 1.0 at 4 workers, exchange off)
//   scaling_efficiency   pps / same-exchange-flavor 1-worker pipeline pps
// plus hardware_concurrency, so that floor is held only against runs on 4
// or more cores.
//
//   ./bench_pipeline [packetsPerDevice] [devices]
//
// Emits BENCH_pipeline.json next to the binary plus a kalis::obs registry
// snapshot ($KALIS_METRICS_OUT overrides) of the 4-worker
// exchange-enabled run. Single-core machines will show ~1x speedups.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kalis/kalis_node.hpp"
#include "metrics/metrics_export.hpp"
#include "net/ieee80211.hpp"
#include "net/ipv4.hpp"
#include "net/transport.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "trace/trace_file.hpp"
#include "util/strings.hpp"

using namespace kalis;

namespace {

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Synthetic home traffic: `devices` WiFi stations, each sending periodic
/// UDP telemetry to the router. Distinct source MACs spread the flows
/// across shards; timestamps interleave the devices round-robin.
trace::Trace syntheticTrace(std::size_t devices, std::size_t perDevice) {
  trace::Trace out;
  out.reserve(devices * perDevice);
  const net::Mac48 router{{0x02, 0xff, 0x00, 0x00, 0x00, 0x01}};
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < perDevice; ++i) {
    for (std::size_t d = 0; d < devices; ++d) {
      net::Ipv4Header ip;
      ip.protocol = net::IpProto::kUdp;
      ip.src = net::Ipv4Addr{0x0a000000u + 10u + static_cast<std::uint32_t>(d)};
      ip.dst = net::Ipv4Addr{0x0a000001u};
      ip.identification = static_cast<std::uint16_t>(seq);
      net::UdpDatagram udp;
      udp.srcPort = static_cast<std::uint16_t>(40000 + d);
      udp.dstPort = 5683;  // CoAP-style telemetry
      udp.payload = {0x40, 0x01, static_cast<std::uint8_t>(i),
                     static_cast<std::uint8_t>(d)};

      net::WifiFrame frame;
      frame.kind = net::WifiFrameKind::kData;
      frame.toDs = true;
      frame.src = net::Mac48{{0x02, 0x00, 0x00, 0x00, 0x00,
                              static_cast<std::uint8_t>(d + 1)}};
      frame.dst = router;
      frame.bssid = router;
      frame.seqCtl = static_cast<std::uint16_t>(seq);
      frame.body = net::llcSnapWrap(
          net::kEthertypeIpv4,
          BytesView(ip.encode(udp.encode(ip.src, ip.dst))));

      net::CapturedPacket pkt;
      pkt.medium = net::Medium::kWifi;
      pkt.raw = frame.encode();
      // ~1 pkt/ms per device of virtual time keeps tick work bounded.
      pkt.meta.timestamp = seconds(1) + i * milliseconds(1);
      pkt.meta.captureSeq = seq++;
      out.push_back(pkt);
    }
  }
  return out;
}

/// Packets handed to Pipeline::enqueueBatch per call — the producer-side
/// batching unit (one ring lock + at most one wake-up per shard per chunk).
constexpr std::size_t kProducerChunk = 1024;

struct RunResult {
  std::string name;
  std::size_t workers = 0;
  bool exchange = false;
  double wallSec = 0;
  double pps = 0;
  double scalingEfficiency = 0;  ///< pps / same-flavor 1-worker pps
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::size_t alerts = 0;
  std::uint64_t knowledgePublished = 0;
  std::uint64_t knowledgeApplied = 0;
  std::uint64_t knowledgeDroppedInFlight = 0;
};

pipeline::KalisEngineOptions engineOptions(SimTime drainUntil) {
  pipeline::KalisEngineOptions opts;
  opts.seedBase = 7;
  opts.drainUntil = drainUntil;
  opts.configure = [](ids::KalisNode& node) { node.useStandardLibrary(); };
  return opts;
}

RunResult runSynchronous(const trace::Trace& trace, SimTime drainUntil) {
  sim::Simulator sim(7);
  ids::KalisNode node(sim);
  node.useStandardLibrary();
  node.start();
  const double t0 = nowSec();
  for (const auto& pkt : trace) node.replayFeed(pkt);
  sim.runUntil(drainUntil);
  const double wall = nowSec() - t0;
  RunResult r;
  r.name = "synchronous";
  r.wallSec = wall;
  r.pps = wall > 0 ? static_cast<double>(trace.size()) / wall : 0;
  r.processed = trace.size();
  r.alerts = node.alerts().size();
  return r;
}

RunResult runPipeline(const trace::Trace& trace, std::size_t workers,
                      SimTime drainUntil, bool exchange,
                      obs::Registry* metricsOut) {
  pipeline::Options opts;
  opts.workers = workers;
  opts.queueCapacity = 8192;
  opts.policy = pipeline::Backpressure::kBlock;
  opts.knowledgeExchange = exchange;
  pipeline::Pipeline pipe(opts,
                          pipeline::makeKalisEngineFactory(engineOptions(drainUntil)));
  pipe.start();
  const double t0 = nowSec();
  for (std::size_t i = 0; i < trace.size(); i += kProducerChunk) {
    const std::size_t n = std::min(kProducerChunk, trace.size() - i);
    if (pipe.enqueueBatch(trace.data() + i, n) != n) {
      std::fprintf(stderr, "bench_pipeline: enqueue failed under block!\n");
      std::exit(1);
    }
  }
  pipe.stop();
  const double wall = nowSec() - t0;
  const pipeline::Pipeline::Stats stats = pipe.stats();
  if (stats.processed != trace.size() || stats.dropped() != 0) {
    std::fprintf(stderr,
                 "bench_pipeline: loss under block policy (%llu/%zu, %llu "
                 "dropped)\n",
                 static_cast<unsigned long long>(stats.processed),
                 trace.size(),
                 static_cast<unsigned long long>(stats.dropped()));
    std::exit(1);
  }
  if (metricsOut) pipe.collectMetrics(*metricsOut, "pipeline");
  RunResult r;
  r.name = "pipeline_w" + std::to_string(workers) + (exchange ? "_xchg" : "");
  r.workers = workers;
  r.exchange = exchange;
  r.wallSec = wall;
  r.pps = wall > 0 ? static_cast<double>(trace.size()) / wall : 0;
  r.processed = stats.processed;
  r.dropped = stats.dropped();
  r.alerts = pipe.alerts().size();
  r.knowledgePublished = stats.knowledgePublished;
  r.knowledgeApplied = stats.knowledgeApplied;
  r.knowledgeDroppedInFlight = stats.knowledgeDroppedInFlight;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Both counts are whole base-10 integers >= 1, so that "abc" is refused
  // rather than read as 0 (an empty trace).
  std::size_t counts[] = {2000, 16};  // packetsPerDevice, devices
  for (int i = 1; i < argc; ++i) {
    const std::optional<long long> n = parseInt(argv[i]);
    if (i > 2 || !n || *n < 1) {
      std::fprintf(stderr,
                   "bench_pipeline: bad argument '%s' (expected at most "
                   "two integers >= 1)\nusage: bench_pipeline "
                   "[packetsPerDevice] [devices]\n",
                   argv[i]);
      return 2;
    }
    counts[i - 1] = static_cast<std::size_t>(*n);
  }
  const std::size_t perDevice = counts[0];
  const std::size_t devices = counts[1];
  const trace::Trace trace = syntheticTrace(devices, perDevice);
  const SimTime drainUntil = trace.back().meta.timestamp + seconds(2);

  std::printf("bench_pipeline: %zu packets (%zu devices x %zu), "
              "hardware_concurrency=%u\n",
              trace.size(), devices, perDevice,
              std::thread::hardware_concurrency());

  std::vector<RunResult> results;
  results.push_back(runSynchronous(trace, drainUntil));
  obs::Registry pipelineMetrics;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    results.push_back(runPipeline(trace, workers, drainUntil,
                                  /*exchange=*/false, nullptr));
  }
  // Same sweep with the cross-shard knowledge exchange on, quantifying the
  // cost of collective knowledge sharing. The 4-worker exchange run feeds
  // the kalis::obs snapshot so exchange-ring metrics land in the artifact.
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    results.push_back(runPipeline(trace, workers, drainUntil,
                                  /*exchange=*/true,
                                  workers == 4 ? &pipelineMetrics : nullptr));
  }

  const double basePps = results.front().pps;
  // Scaling efficiency: each pipeline run against the 1-worker run of the
  // same exchange flavor (the fair parallel-scaling denominator).
  for (RunResult& r : results) {
    if (r.workers == 0) continue;
    for (const RunResult& one : results) {
      if (one.workers == 1 && one.exchange == r.exchange && one.pps > 0) {
        r.scalingEfficiency = r.pps / one.pps;
      }
    }
  }
  std::printf("\n%-18s %8s %12s %12s %10s %9s %8s %10s\n", "config", "workers",
              "wall_sec", "pkts/sec", "speedup", "scaling", "alerts",
              "kb_pub");
  for (const RunResult& r : results) {
    std::printf("%-18s %8zu %12.3f %12.0f %9.2fx %8.2fx %8zu %10llu\n",
                r.name.c_str(), r.workers, r.wallSec, r.pps,
                basePps > 0 ? r.pps / basePps : 0, r.scalingEfficiency,
                r.alerts,
                static_cast<unsigned long long>(r.knowledgePublished));
  }
  // Exchange on/off throughput delta at matching worker counts.
  for (const RunResult& on : results) {
    if (!on.exchange) continue;
    for (const RunResult& off : results) {
      if (off.exchange || off.workers != on.workers || off.workers == 0) continue;
      std::printf("exchange overhead @%zu workers: %.1f%% (%.0f -> %.0f pps)\n",
                  on.workers,
                  off.pps > 0 ? (1.0 - on.pps / off.pps) * 100.0 : 0.0,
                  off.pps, on.pps);
    }
  }

  // BENCH_pipeline.json: machine-readable acceptance artifact. Fixed name —
  // $KALIS_METRICS_OUT redirects only the kalis::obs snapshot below, so the
  // two writes can never collide on one path.
  const std::string jsonPath = "BENCH_pipeline.json";
  std::ofstream out(jsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"pipeline\",\n";
  out << "  \"packets\": " << trace.size() << ",\n";
  out << "  \"devices\": " << devices << ",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"backpressure\": \""
      << pipeline::backpressureName(pipeline::Backpressure::kBlock)
      << "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"workers\": " << r.workers
        << ", \"exchange\": " << (r.exchange ? "true" : "false")
        << ", \"wall_sec\": " << r.wallSec << ", \"pps\": " << r.pps
        << ", \"speedup\": " << (basePps > 0 ? r.pps / basePps : 0)
        << ", \"scaling_efficiency\": " << r.scalingEfficiency
        << ", \"processed\": " << r.processed << ", \"dropped\": " << r.dropped
        << ", \"alerts\": " << r.alerts
        << ", \"knowledge_published\": " << r.knowledgePublished
        << ", \"knowledge_applied\": " << r.knowledgeApplied
        << ", \"knowledge_dropped_in_flight\": " << r.knowledgeDroppedInFlight
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::fprintf(stderr, "bench_pipeline: results written to %s\n",
               out ? jsonPath.c_str() : "<failed>");

  // kalis::obs snapshot of the 4-worker run's ring/queue instrumentation.
  const std::string metricsPath =
      metrics::metricsOutputPath("bench_pipeline.metrics.json");
  std::ofstream metricsFile(metricsPath, std::ios::trunc);
  metricsFile << pipelineMetrics.toJson();
  std::fprintf(stderr, "bench_pipeline: metrics written to %s\n",
               metricsFile ? metricsPath.c_str() : "<failed>");
  return 0;
}
