// Micro-benchmarks (google-benchmark): throughput of the hot paths — the
// Knowledge Base key-value operations (Fig. 5b encoding), packet dissect/
// serialize, the per-packet entity-state lookup, the Kalis engine per
// packet, and the Snort-like rule engine per packet. These quantify the
// per-packet cost asymmetry behind Table II's CPU column.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "baseline/snort_engine.hpp"
#include "kalis/entity_map.hpp"
#include "kalis/kalis_node.hpp"
#include "metrics/metrics_export.hpp"
#include "net/codec.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace kalis;

namespace {

net::CapturedPacket makeIcmpPacket(std::uint64_t i) {
  net::Ipv4Header ip;
  ip.src = net::Ipv4Addr{0x0a000001u + static_cast<std::uint32_t>(i % 5)};
  ip.dst = net::Ipv4Addr{0x0a000010u};
  ip.protocol = net::IpProto::kIcmp;
  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.sequence = static_cast<std::uint16_t>(i);
  echo.payload = bytesOf("abcdefgh12345678");

  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.dst = net::Mac48{{2, 0, 0, 0, 0, 1}};
  frame.src = net::Mac48{{2, 0, 0, 0, 0, 2}};
  frame.bssid = net::Mac48{{2, 0, 0, 0, 0, 3}};
  frame.body = net::llcSnapWrap(net::kEthertypeIpv4,
                                BytesView(ip.encode(echo.encode())));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = i * 1000;
  pkt.meta.rssiDbm = -60.0;
  return pkt;
}

void BM_KnowledgeBasePut(benchmark::State& state) {
  ids::KnowledgeBase kb("K1");
  std::uint64_t i = 0;
  for (auto _ : state) {
    kb.put("TrafficFrequency.TCPSYN", static_cast<double>(i % 97));
    ++i;
  }
}
BENCHMARK(BM_KnowledgeBasePut);

void BM_KnowledgeBaseLookup(benchmark::State& state) {
  ids::KnowledgeBase kb("K1");
  for (int i = 0; i < 256; ++i) {
    kb.put("SignalStrength", -60 - i % 30, "0x" + std::to_string(i));
  }
  kb.put("Multihop", true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.local<bool>("Multihop"));
  }
}
BENCHMARK(BM_KnowledgeBaseLookup);

void BM_KnowledgeBaseEntityScan(benchmark::State& state) {
  ids::KnowledgeBase kb("K1");
  for (int i = 0; i < 256; ++i) {
    kb.put("SignalStrength", -60 - i % 30, "0x" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.byEntity("0x128"));
  }
}
BENCHMARK(BM_KnowledgeBaseEntityScan);

void BM_Dissect(benchmark::State& state) {
  const net::CapturedPacket pkt = makeIcmpPacket(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dissect(pkt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Dissect);

// Per-packet detection-state touch: an EntityRef-keyed lookup (constexpr
// FNV key over 18 bytes), as the flood modules do for every frame.
void BM_EntityStateTouch(benchmark::State& state) {
  ids::EntityKeyedMap<std::uint64_t> counters;
  for (std::uint16_t i = 0; i < 64; ++i) {
    counters.tryEmplace(net::EntityRef::of(net::Mac16{i}), 0);
  }
  const net::CapturedPacket pkt = makeIcmpPacket(7);
  const net::Dissection dis = net::dissect(pkt);
  for (auto _ : state) {
    auto [entry, inserted] = counters.tryEmplace(dis.linkSourceRef(), 0);
    ++entry->value;
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EntityStateTouch);

// The serializer half of the codec roundtrip (net/codec.hpp): re-emitting
// the wire bytes of an already-dissected frame. Reported, not gated: its
// allocations per packet are pinned exactly by kalis_alloc_tests.
void BM_SerializeDissection(benchmark::State& state) {
  const net::CapturedPacket pkt = makeIcmpPacket(7);
  const net::Dissection dis = net::dissect(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::serialize(dis));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SerializeDissection);

void BM_KalisEnginePerPacket(benchmark::State& state) {
  sim::Simulator simulator(1);
  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.start();
  std::uint64_t i = 0;
  for (auto _ : state) {
    const net::CapturedPacket pkt = makeIcmpPacket(i++);
    node.feed(pkt, net::dissect(pkt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_KalisEnginePerPacket);

void BM_SnortEnginePerPacket(benchmark::State& state) {
  baseline::SnortEngine engine;
  engine.loadRules(baseline::communityRuleset());
  std::uint64_t i = 0;
  for (auto _ : state) {
    engine.onPacket(makeIcmpPacket(i++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_SnortEnginePerPacket);

void BM_TraceRoundTrip(benchmark::State& state) {
  trace::Trace traceData;
  for (std::uint64_t i = 0; i < 64; ++i) traceData.push_back(makeIcmpPacket(i));
  for (auto _ : state) {
    const Bytes bytes = trace::serializeTrace(traceData);
    benchmark::DoNotOptimize(trace::readTrace(BytesView(bytes)));
  }
}
BENCHMARK(BM_TraceRoundTrip);

/// Post-benchmark instrumented sweep: a fixed packet mix through the full
/// engine, dumped as the kalis::obs metrics JSON (per-module packet counts
/// and latency histograms) that CI uploads as an artifact.
void dumpEngineMetrics() {
  sim::Simulator simulator(7);
  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.start();
  constexpr std::uint64_t kPackets = 20000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    const net::CapturedPacket pkt = makeIcmpPacket(i);
    node.feed(pkt, net::dissect(pkt));
  }
  simulator.runUntil(seconds(30));
  const std::string path = metrics::exportMetricsJson(
      node, simulator, "bench_micro", "bench_micro.metrics.json");
  std::fprintf(stderr, "bench_micro: metrics (%s) written to %s\n",
               obs::kEnabled ? "KALIS_METRICS=ON" : "KALIS_METRICS=OFF",
               path.empty() ? "<failed>" : path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dumpEngineMetrics();
  return 0;
}
