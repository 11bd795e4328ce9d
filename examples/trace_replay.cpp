// Record-and-replay, the paper's evaluation methodology (§VI-A): record a
// benign trace from the live network via the Data Store's disk log, record
// an attack separately, splice them together, and replay the merged trace
// through a fresh Kalis instance "as if operating on live traffic".
//
// With --pipeline the replay is pushed through the kalis::pipeline
// ingestion engine instead of a directly-fed node: packets are hash-routed
// by link-layer source to N worker shards, each running a private Kalis
// stack, and alerts come out of the timestamp-ordered merge stage.
// --workers 1 runs a single shard, which reproduces the direct path byte
// for byte.
//
// --kb-sync MS additionally turns on the cross-shard collective knowledge
// exchange (DESIGN.md §8) with the given sync interval in virtual
// milliseconds, so shard engines share collective knowggets just as peered
// Kalis nodes do over one-way channels.
//
// --chaos PLAN runs the whole exercise under a kalis::chaos fault plan
// (DESIGN.md §9): the capture worlds get link-level faults (burst loss,
// duplication, reordering, corruption, crashes) and the pipeline workers get
// ingestion stalls. PLAN is "key=value,..." or a preset (light/heavy), e.g.
// --chaos "light" or --chaos "loss=0.05,burst=3,stall-batches=8,stall-us=500".
//
// --chaos-diff PLAN instead runs differential verification
// (scenarios::diffTraceReplay): baseline vs faulted vs multi-worker,
// classifies every SIEM divergence (accounted loss / reordering-tolerant /
// regression), writes chaos_divergence.json, and exits nonzero on any
// regression.
//
// --pcap FILE replays a recorded pcap capture (written by a real sniffer or
// by --dump-pcap) instead of simulating: trace::readPcapFile turns it into
// a trace, which takes the same two replay steps as a recorded one
// (KalisNode::replayFeed per packet, or Pipeline::enqueueBatch), so a dumped
// trace replays byte-identically to the in-memory run that produced it. A
// file cut short replays the packets before the cut and says [TRUNCATED].
// --dump-pcap FILE writes the replayed trace as a mixed-medium pcap
// (DLT_USER0 + Kalis pseudo-header, lossless RxMeta).
//
// Run `trace_replay --help` for the full flag reference; a malformed
// numeric value or --workers 0 exits 2 with the usage text.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "chaos/alert_diff.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/kalis_node.hpp"
#include "metrics/evaluation.hpp"
#include "metrics/metrics_export.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "scenarios/chaos_workload.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

using namespace kalis;

namespace {

constexpr const char* kUsage =
    R"(usage: trace_replay [seed] [options]

Record-and-replay driver (paper §VI-A). By default records a benign run and
an attack run in the simulator, splices them by timestamp, round-trips the
merged trace through the KTRC on-disk format, and replays it through a
fresh Kalis instance "as if operating on live traffic".

  [seed]             positional RNG seed for the recorded runs (default 21)
  --seed S           same as the positional seed
  --pipeline         replay through the kalis::pipeline ingestion engine
  --workers N        pipeline worker shards, N >= 1 (default 4); one worker
                     reproduces the direct replay byte for byte
  --kb-sync MS       enable the cross-shard collective knowledge exchange
                     with a sync interval of MS virtual milliseconds
  --chaos PLAN       record+replay under a kalis::chaos fault plan; PLAN is
                     "light", "heavy" or "key=value,..."
  --chaos-diff PLAN  differential verification instead: baseline vs faulted
                     vs multi-worker, nonzero exit on unexplained divergence
  --pcap FILE        replay a recorded pcap capture instead of simulating
                     (file DLT 195 / 105 / 251 or Kalis mixed 147); honors
                     --pipeline and --workers
  --dump-pcap FILE   after recording, dump the replayed trace as a
                     mixed-medium pcap for later --pcap replay
  --help             show this text
)";

/// Parsed command line; one field per flag, defaults = historical behavior.
struct ReplayOptions {
  std::uint64_t seed = 21;
  bool usePipeline = false;
  std::size_t workers = 4;
  bool kbSync = false;
  std::uint64_t kbSyncMs = 10;
  std::optional<chaos::FaultPlan> chaosPlan;
  bool chaosDiff = false;
  std::string pcapIn;   ///< --pcap FILE: replay this capture
  std::string pcapOut;  ///< --dump-pcap FILE: write the replayed trace
  bool help = false;
};

/// Parses argv into ReplayOptions. Returns nullopt (after printing a
/// diagnostic) on an unknown flag, a missing or malformed value or a bad
/// fault plan.
std::optional<ReplayOptions> parseReplayOptions(int argc, char** argv) {
  ReplayOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Flags taking a value consume argv[i+1]; nullptr = value missing.
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto missing = [&]() -> std::optional<ReplayOptions> {
      std::fprintf(stderr, "trace_replay: missing value for %s\n%s",
                   argv[i], kUsage);
      return std::nullopt;
    };
    // A numeric argument must be a whole base-10 integer >= `min`; anything
    // else (empty, signed, trailing characters, out of range) gets the
    // diagnostic and nullopt.
    const auto count = [&](std::string_view text, std::string_view name,
                           std::uint64_t min) -> std::optional<std::uint64_t> {
      std::uint64_t n = 0;
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, n);
      if (ec == std::errc{} && ptr == end && n >= min) return n;
      std::fprintf(stderr,
                   "trace_replay: bad value '%.*s' for %.*s (expected an "
                   "integer >= %llu)\n%s",
                   static_cast<int>(text.size()), text.data(),
                   static_cast<int>(name.size()), name.data(),
                   static_cast<unsigned long long>(min), kUsage);
      return std::nullopt;
    };
    // A numeric flag's value; nullopt after the diagnostic.
    const auto number = [&](std::uint64_t min) -> std::optional<std::uint64_t> {
      const char* v = value();
      if (!v) {
        missing();
        return std::nullopt;
      }
      return count(v, arg, min);
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--pipeline") {
      opt.usePipeline = true;
    } else if (arg == "--workers") {
      const auto n = number(1);
      if (!n) return std::nullopt;
      opt.workers = static_cast<std::size_t>(*n);
    } else if (arg == "--kb-sync") {
      const auto n = number(0);
      if (!n) return std::nullopt;
      opt.kbSync = true;
      opt.kbSyncMs = *n;
    } else if (arg == "--seed") {
      const auto n = number(0);
      if (!n) return std::nullopt;
      opt.seed = *n;
    } else if (arg == "--pcap") {
      const char* v = value();
      if (!v) return missing();
      opt.pcapIn = v;
    } else if (arg == "--dump-pcap") {
      const char* v = value();
      if (!v) return missing();
      opt.pcapOut = v;
    } else if (arg == "--chaos" || arg == "--chaos-diff") {
      opt.chaosDiff = arg == "--chaos-diff";
      const char* v = value();
      if (!v) return missing();
      std::string error;
      opt.chaosPlan = chaos::FaultPlan::parse(v, &error);
      if (!opt.chaosPlan) {
        std::fprintf(stderr, "bad fault plan: %s\n", error.c_str());
        return std::nullopt;
      }
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "trace_replay: unknown flag %s\n%s", argv[i],
                   kUsage);
      return std::nullopt;
    } else {
      const auto n = count(argv[i], "seed", 0);
      if (!n) return std::nullopt;
      opt.seed = *n;
    }
  }
  return opt;
}

/// --chaos-diff: differential verification over the packaged trace_replay
/// workload; writes the divergence report for the CI artifact.
int runChaosDiff(std::uint64_t seed, const chaos::FaultPlan& plan,
                 std::size_t workers) {
  std::printf("Differential verification under plan [%s], %zu workers\n",
              plan.describe().c_str(), workers);
  const chaos::DiffReport report =
      scenarios::diffTraceReplay(seed, plan, workers);

  const auto printDiff = [](const char* name, const chaos::DiffResult& d) {
    std::printf(
        "%s: %zu vs %zu alerts — %s (%zu accounted-loss, %zu "
        "reordering-tolerant, %zu evasion, %zu regressions)\n",
        name, d.baselineAlerts, d.subjectAlerts,
        d.identical ? "identical" : "diverged",
        d.count(chaos::DivergenceKind::kAccountedLoss),
        d.count(chaos::DivergenceKind::kReorderingTolerant),
        d.count(chaos::DivergenceKind::kEvasion),
        d.count(chaos::DivergenceKind::kRegression));
  };
  printDiff("faulted vs baseline ", report.faultedVsBaseline);
  printDiff("workers vs 1 worker ", report.workersVsDeterministic);

  const char* path = "chaos_divergence.json";
  std::ofstream out(path, std::ios::trunc);
  out << report.toJson();
  std::printf("Divergence report written to %s\n", out ? path : "<failed>");
  if (report.hasRegression()) {
    std::printf("REGRESSION: divergences not explained by injected faults\n");
    return 1;
  }
  return 0;
}

/// Replay through the kalis::pipeline ingestion engine: the trace goes to
/// the worker shards through enqueueBatch, alerts emerge from the ordered
/// merge stage. `truth` is null for --pcap replays (no ground truth on a
/// recorded capture), which also disables the detection-rate exit gate.
int replayPipeline(const trace::Trace& packets, const ReplayOptions& opt,
                   const chaos::FaultPlan* plan,
                   const metrics::GroundTruth* truth) {
  pipeline::Options popts;
  popts.workers = opt.workers;
  popts.policy = pipeline::Backpressure::kBlock;
  popts.knowledgeExchange = opt.kbSync;
  popts.knowledgeSyncInterval = milliseconds(opt.kbSyncMs);
  if (plan) popts.faults = plan->ingestFaults();
  pipeline::Pipeline pipe(popts, pipeline::makeKalisEngineFactory(
                                     scenarios::traceReplayEngineOptions()));
  pipe.setAlertSink([](const ids::Alert& alert) {
    std::printf("REPLAY ALERT  %s\n", ids::toString(alert).c_str());
  });
  std::printf("Replaying through kalis::pipeline (%zu worker%s%s)\n",
              pipe.shardCount(), pipe.shardCount() == 1 ? "" : "s",
              opt.kbSync ? ", knowledge exchange on" : "");
  pipe.start();
  constexpr std::size_t kChunk = 1024;
  for (std::size_t i = 0; i < packets.size(); i += kChunk) {
    pipe.enqueueBatch(packets.data() + i, std::min(kChunk, packets.size() - i));
  }
  pipe.stop();

  double rate = 0.0;
  if (truth) {
    const auto eval = metrics::evaluate(*truth, pipe.alerts());
    rate = eval.detectionRate();
    std::printf("\nOffline detection rate over the replayed trace: %.0f%%\n",
                rate * 100.0);
  }
  const pipeline::Pipeline::Stats stats = pipe.stats();
  std::printf("Pipeline: %llu enqueued, %llu processed, %llu dropped\n",
              static_cast<unsigned long long>(stats.enqueued),
              static_cast<unsigned long long>(stats.processed),
              static_cast<unsigned long long>(stats.dropped()));
  if (opt.kbSync) {
    std::printf("Knowledge exchange: %llu published, %llu applied, "
                "%llu rejected, %llu dropped in flight\n",
                static_cast<unsigned long long>(stats.knowledgePublished),
                static_cast<unsigned long long>(stats.knowledgeApplied),
                static_cast<unsigned long long>(stats.knowledgeRejected),
                static_cast<unsigned long long>(stats.knowledgeDroppedInFlight));
  }

  obs::Registry reg;
  pipe.collectMetrics(reg, "pipeline");
  const std::string metricsPath =
      metrics::metricsOutputPath("trace_replay.metrics.json");
  std::ofstream outFile(metricsPath, std::ios::trunc);
  outFile << reg.toJson();
  std::printf("Replay metrics written to %s\n",
              outFile ? metricsPath.c_str() : "<failed>");
  if (!truth) return 0;
  // Under an active fault plan detection may legitimately degrade; the
  // run reports, it does not gate.
  return plan ? 0 : (rate > 0.99 ? 0 : 1);
}

/// Replay through a directly-fed Kalis node: a *fresh* node on a fresh
/// virtual clock takes the trace packet by packet — the same replayFeed
/// step the pipeline shard engines use, so alerts match a one-worker
/// pipeline byte for byte. `truth` as in replayPipeline.
int replayDirect(const trace::Trace& packets, const chaos::FaultPlan* plan,
                 const metrics::GroundTruth* truth) {
  const pipeline::KalisEngineOptions eopts =
      scenarios::traceReplayEngineOptions();
  sim::Simulator replaySim(eopts.seedBase);
  ids::KalisNode kalisBox(replaySim, eopts.node);
  eopts.configure(kalisBox);
  kalisBox.setAlertSink([](const ids::Alert& alert) {
    std::printf("REPLAY ALERT  %s\n", ids::toString(alert).c_str());
  });
  kalisBox.start();
  for (const net::CapturedPacket& pkt : packets) kalisBox.replayFeed(pkt);
  replaySim.runUntil(eopts.drainUntil);

  double rate = 0.0;
  if (truth) {
    const auto eval = metrics::evaluate(*truth, kalisBox.alerts());
    rate = eval.detectionRate();
    std::printf("\nOffline detection rate over the replayed trace: %.0f%%\n",
                rate * 100.0);
  }

  // Dump the kalis::obs snapshot of the replay run ($KALIS_METRICS_OUT
  // overrides the path) — the same artifact the bench binaries emit.
  const std::string metricsPath = metrics::exportMetricsJson(
      kalisBox, replaySim, "trace_replay", "trace_replay.metrics.json");
  std::printf("Replay metrics written to %s\n",
              metricsPath.empty() ? "<failed>" : metricsPath.c_str());
  if (!truth) return 0;
  return plan ? 0 : (rate > 0.99 ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<ReplayOptions> parsed = parseReplayOptions(argc, argv);
  if (!parsed) return 2;
  const ReplayOptions& opt = *parsed;
  if (opt.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  if (opt.chaosDiff) return runChaosDiff(opt.seed, *opt.chaosPlan, opt.workers);

  const chaos::FaultPlan* plan = opt.chaosPlan ? &*opt.chaosPlan : nullptr;

  // --pcap: skip the simulator entirely and replay a recorded capture file
  // through the very same engines. A file written by --dump-pcap preserves
  // RxMeta losslessly, so this run's SIEM stream is byte-identical to the
  // in-memory replay that produced the dump.
  if (!opt.pcapIn.empty()) {
    const std::optional<trace::PcapReadResult> capture =
        trace::readPcapFile(opt.pcapIn);
    if (!capture) {
      std::fprintf(stderr, "trace_replay: cannot read pcap file %s\n",
                   opt.pcapIn.c_str());
      return 2;
    }
    std::printf("Replaying %zu packets from %s%s\n", capture->packets.size(),
                opt.pcapIn.c_str(), capture->truncated ? " [TRUNCATED]" : "");
    return opt.usePipeline
               ? replayPipeline(capture->packets, opt, plan, nullptr)
               : replayDirect(capture->packets, plan, nullptr);
  }

  if (plan) {
    std::printf("Chaos plan active: %s\n", plan->describe().c_str());
  }

  // 1. Record benign traffic and, separately, an attack run; splice them
  //    and persist the merged trace in the KTRC on-disk format and reload
  //    it — exactly what the Data Store's log/replay path does.
  const scenarios::TraceReplayRecording rec =
      scenarios::recordTraceReplay(opt.seed, plan);
  const trace::Trace& reloaded = rec.replay.packets;
  std::printf("Recorded %zu benign packets and %zu attack-run packets\n",
              rec.benign.packets.size(), rec.withAttack.packets.size());
  if (plan) {
    const chaos::LinkChaos::Stats f =
        rec.benign.linkFaults + rec.withAttack.linkFaults;
    std::printf(
        "Injected link faults: %llu dropped, %llu corrupted, %llu "
        "duplicated, %llu delayed, %llu crashes\n",
        static_cast<unsigned long long>(f.rxDropped),
        static_cast<unsigned long long>(f.corrupted),
        static_cast<unsigned long long>(f.duplicated),
        static_cast<unsigned long long>(f.delayed),
        static_cast<unsigned long long>(f.crashes));
  }

  std::printf("KTRC round trip: %zu packets (%zu bytes on disk)%s\n",
              reloaded.size(), rec.ktrcBytes,
              rec.replay.truncated ? " [TRUNCATED]" : "");

  // 2. --dump-pcap: write the exact packet sequence the replay below will
  //    take (post-KTRC-roundtrip) as a mixed-medium pcap, so a later --pcap
  //    run reproduces this run's SIEM stream byte for byte.
  if (!opt.pcapOut.empty()) {
    trace::PcapWriter writer(net::kDltKalisMixed);
    for (const net::CapturedPacket& pkt : reloaded) writer.append(pkt);
    const bool ok = writer.writeFile(opt.pcapOut);
    std::printf("Pcap dump: %zu packets (%zu bytes) written to %s\n",
                reloaded.size(), writer.buffer().size(),
                ok ? opt.pcapOut.c_str() : "<failed>");
    if (!ok) return 2;
  }

  // 3. Replay the trace "as if operating on live traffic" — the same steps
  //    a pcap file's packets take.
  return opt.usePipeline
             ? replayPipeline(reloaded, opt, plan, &rec.withAttack.truth)
             : replayDirect(reloaded, plan, &rec.withAttack.truth);
}
