#include "scenarios/chaos_workload.hpp"

#include <memory>
#include <utility>

#include "attacks/dos_attacks.hpp"
#include "kalis/siem_export.hpp"
#include "scenarios/environments.hpp"

namespace kalis::scenarios {

Capture captureHomeTrace(std::uint64_t seed, bool withAttack,
                         const chaos::FaultPlan* plan) {
  Capture cap;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  HomeWifi home = buildHomeWifi(world, cloud, seed);

  if (withAttack) {
    const NodeId attacker =
        world.addNode("attacker", sim::NodeRole::kGeneric, {18, 16});
    world.enableRadio(attacker, net::Medium::kWifi);
    attacks::IcmpFloodAttacker::Config attack;
    attack.victimIp = world.ipv4Of(home.thermostat);
    attack.victimMac = world.mac48Of(home.thermostat);
    attack.bssid = world.mac48Of(home.router);
    attack.firstBurstAt = seconds(20);
    attack.burstCount = 4;
    attack.truth = &cap.truth;
    world.setBehavior(attacker,
                      std::make_unique<attacks::IcmpFloodAttacker>(attack));
  }

  record(world, {home.ids}, {net::Medium::kWifi}, seconds(70), cap, plan);
  return cap;
}

TraceReplayRecording recordTraceReplay(std::uint64_t seed,
                                       const chaos::FaultPlan* plan) {
  TraceReplayRecording rec;
  rec.benign = captureHomeTrace(seed, false, plan);
  rec.withAttack = captureHomeTrace(seed + 1, true, plan);
  const Bytes fileBytes = trace::serializeTrace(
      trace::mergeTraces(rec.benign.packets, rec.withAttack.packets));
  rec.ktrcBytes = fileBytes.size();
  rec.replay = trace::readTrace(BytesView(fileBytes));
  return rec;
}

pipeline::KalisEngineOptions traceReplayEngineOptions() {
  pipeline::KalisEngineOptions eopts;
  eopts.seedBase = 99;
  eopts.drainUntil = seconds(80);
  eopts.configure = [](ids::KalisNode& node) { node.useStandardLibrary(); };
  return eopts;
}

chaos::RunOutput runTraceReplayWorkload(std::uint64_t seed,
                                        const chaos::FaultPlan* plan,
                                        std::size_t workers) {
  chaos::RunOutput out;
  out.label = (plan ? "faulted/" : "clean/") + std::to_string(workers) +
              (workers == 1 ? " worker" : " workers");

  const TraceReplayRecording rec = recordTraceReplay(seed, plan);
  const trace::Trace& packets = rec.replay.packets;

  pipeline::Options popts;
  popts.workers = workers;
  popts.policy = pipeline::Backpressure::kBlock;
  if (plan) popts.faults = plan->ingestFaults();
  pipeline::Pipeline pipe(
      popts, pipeline::makeKalisEngineFactory(traceReplayEngineOptions()));
  pipe.start();
  for (const net::CapturedPacket& pkt : packets) pipe.enqueue(pkt);
  pipe.stop();

  out.packetsFed = packets.size();
  out.alerts = pipe.alerts();
  out.siemLines = ids::toSiemLines(out.alerts);
  out.pipelineStats = pipe.stats();
  out.linkFaults = rec.benign.linkFaults + rec.withAttack.linkFaults;
  return out;
}

chaos::DiffReport diffTraceReplay(std::uint64_t seed,
                                  const chaos::FaultPlan& plan,
                                  std::size_t workers) {
  const chaos::RunOutput baseline = runTraceReplayWorkload(seed, nullptr, 1);
  const chaos::RunOutput faulted = runTraceReplayWorkload(seed, &plan, 1);
  const chaos::RunOutput threaded =
      runTraceReplayWorkload(seed, &plan, workers);
  return {plan, chaos::diffAlertStreams(baseline, faulted),
          chaos::diffAlertStreams(faulted, threaded)};
}

}  // namespace kalis::scenarios
