// attacks::evasion regression harness (DESIGN.md §13).
//
// Covers the four contracts the evasion subsystem makes:
//   identity      a zero-budget plan reproduces the unperturbed scenario
//                 byte-for-byte (SIEM-stream equality), alone and composed
//                 with a chaos::FaultPlan;
//   determinism   the same (scenario, seed, budget) replays to the same
//                 curves, and a point's recorded spec names everything that
//                 re-creates its run;
//   monotonicity  detection at budget 0 is never worse than at the maximum
//                 budget, for every Fig. 8 scenario;
//   codec safety  every perturbed frame still satisfies
//                 serialize(dissect(x)) == x, including the committed
//                 evasion-mutated RPL/BLE corpus frames.
//
// Golden files (tests/golden/evasion_*.siem.jsonl) pin one representative
// evaded run per attack family, and tests/corpus/evasion_*.hex the mutated
// frames; both go through test::checkGolden and its regenerate flow.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/evasion.hpp"
#include "chaos/alert_diff.hpp"
#include "chaos/fault_plan.hpp"
#include "kalis/siem_export.hpp"
#include "net/ble.hpp"
#include "net/codec.hpp"
#include "net/ieee802154.hpp"
#include "net/ipv6.hpp"
#include "scenarios/evasion_sweep.hpp"
#include "scenarios/scenarios.hpp"
#include "support.hpp"

namespace kalis {
namespace {

namespace ev = attacks::evasion;
using scenarios::SystemKind;
using test::outputOf;

// --- plan --------------------------------------------------------------------

TEST(EvasionSpec, ZeroPlanForms) {
  EXPECT_TRUE(ev::EvasionPlan{}.zero());  // default budget 0
  ev::EvasionPlan armed;
  armed.budget = 0.2;
  EXPECT_FALSE(armed.zero());
}

// --- zero-budget identity ----------------------------------------------------

TEST(EvasionIdentity, ZeroBudgetRunIsByteIdentical) {
  ev::EvasionPlan zero;  // budget 0
  const auto bare =
      scenarios::evaluate(SystemKind::kKalis, scenarios::captureIcmpFlood(7));
  const scenarios::Capture wrappedCapture =
      scenarios::captureIcmpFlood(7, nullptr, &zero);
  const auto wrapped = scenarios::evaluate(SystemKind::kKalis, wrappedCapture);
  ASSERT_FALSE(bare.alerts.empty());
  EXPECT_EQ(ids::toSiemLines(bare.alerts), ids::toSiemLines(wrapped.alerts));
  EXPECT_EQ(wrappedCapture.evasionTally.perturbed(), 0u);
}

TEST(EvasionIdentity, ZeroBudgetComposesWithChaosPlan) {
  const auto faults = chaos::FaultPlan::parse("light");
  ASSERT_TRUE(faults.has_value());
  ev::EvasionPlan zero;
  const auto chaosOnly = scenarios::evaluate(
      SystemKind::kKalis, scenarios::captureIcmpFlood(7, &*faults));
  const auto both = scenarios::evaluate(
      SystemKind::kKalis, scenarios::captureIcmpFlood(7, &*faults, &zero));
  EXPECT_EQ(ids::toSiemLines(chaosOnly.alerts),
            ids::toSiemLines(both.alerts));
}

// --- sweep determinism and monotonicity --------------------------------------

TEST(EvasionSweep, SameSeedAndBudgetReplayIdentically) {
  ev::SweepOptions opts;
  opts.evasionSeed = 42;
  opts.budgets = {0.0, 0.6};
  opts.scenarioSeed = 5;
  opts.scenarios = {"ICMP Flood"};
  opts.systems = {SystemKind::kKalis};
  const ev::SweepResult first = ev::runSweep(opts);
  const ev::SweepResult second = ev::runSweep(opts);
  EXPECT_EQ(first.toJson(), second.toJson());
  EXPECT_TRUE(first.allZeroBudgetIdentical);
  EXPECT_EQ(first.roundtripViolations, 0u);
}

TEST(EvasionSweep, PointSpecAloneRecreatesTheRun) {
  ev::SweepOptions opts;
  opts.evasionSeed = 42;
  opts.budgets = {0.6};
  opts.scenarioSeed = 5;
  opts.scenarios = {"ICMP Flood"};
  opts.systems = {SystemKind::kKalis};
  opts.checkZeroBudgetIdentity = false;
  const ev::SweepResult sweep = ev::runSweep(opts);
  ASSERT_EQ(sweep.curves.size(), 1u);
  const ev::SweepPoint& point = sweep.curves[0].points[0];

  // Everything needed to replay the point is (scenario, scenario seed,
  // spec), and the spec names both plan values.
  EXPECT_EQ(point.spec, "budget=0.6,seed=42");
  const ev::EvasionPlan replanned{42, point.budget};
  const auto recaptured =
      scenarios::capture("ICMP Flood", 5, nullptr, &replanned);
  ASSERT_TRUE(recaptured.has_value());
  const auto rerun = scenarios::evaluate(SystemKind::kKalis, *recaptured);
  EXPECT_EQ(rerun.detectionRate(), point.detectionRate);
  EXPECT_EQ(rerun.alerts.size(), point.alerts);
}

TEST(EvasionSweep, DetectionNeverImprovesAtMaxBudget) {
  ev::SweepOptions opts;
  opts.budgets = {0.0, 1.0};
  opts.scenarioSeed = 100;
  opts.systems = {SystemKind::kKalis};
  opts.checkZeroBudgetIdentity = false;
  const ev::SweepResult sweep = ev::runSweep(opts);
  ASSERT_EQ(sweep.curves.size(), scenarios::scenarioNames().size());
  for (const ev::SweepCurve& curve : sweep.curves) {
    ASSERT_EQ(curve.points.size(), 2u);
    EXPECT_GE(curve.points[0].detectionRate + 1e-9,
              curve.points[1].detectionRate)
        << curve.scenario << ": budget-1 evasion must not help detection";
  }
  // Effectiveness floor: the flood scenarios are fully evadable at budget 1.
  EXPECT_LE(sweep.curves[0].points[1].detectionRate, 0.25)
      << "ICMP Flood at budget 1 should evade nearly all detection";
  EXPECT_EQ(sweep.roundtripViolations, 0u);
}

// --- codec safety of perturbed frames ----------------------------------------

TEST(EvasionRoundtrip, EveryPerturbedFrameSurvivesTheCodec) {
  std::size_t tapped = 0;
  ev::setPerturbedFrameTap([&](net::Medium medium, const Bytes& frame) {
    ++tapped;
    net::CapturedPacket pkt;
    pkt.medium = medium;
    pkt.raw = frame;
    EXPECT_EQ(net::serialize(net::dissect(pkt)), frame);
  });
  const ev::EvasionPlan plan{.budget = 1.0};
  for (const scenarios::Capture& capture :
       {scenarios::captureIcmpFlood(100, nullptr, &plan),
        scenarios::captureSybil(100, nullptr, &plan)}) {
    SCOPED_TRACE(capture.scenario);
    EXPECT_GT(capture.evasionTally.perturbed(), 0u);
    EXPECT_EQ(capture.evasionTally.roundtripViolations, 0u);
  }
  ev::setPerturbedFrameTap(nullptr);
  EXPECT_GT(tapped, 0u);
}

// --- per-capture tallies -----------------------------------------------------

TEST(EvasionTally, EachCaptureCarriesItsOwnTally) {
  // The forwarding family's relief happens outside any injector; its
  // capture counts it. A later unperturbed capture starts from zero.
  const ev::EvasionPlan plan{.budget = 0.5};
  const scenarios::Capture relieved =
      scenarios::captureBlackhole(100, nullptr, &plan);
  const scenarios::Capture bare = scenarios::captureBlackhole(100);
  EXPECT_EQ(relieved.evasionTally.forwardRelieved, 1u);
  EXPECT_GT(relieved.evasionTally.perturbed(), 0u);
  EXPECT_EQ(bare.evasionTally.perturbed(), 0u);
}

// --- frame mutators and the committed corpus ---------------------------------

Bytes buildRplDioWpanFrame() {
  net::RplDio dio;
  dio.instanceId = 1;
  dio.versionNumber = 2;
  dio.rank = 256;
  dio.dtsn = 5;
  dio.dodagId = net::Ipv6Addr::linkLocalFromShort(net::Mac16{0x0001});
  net::Icmpv6Message msg;
  msg.type = net::Icmpv6Type::kRplControl;
  msg.code = net::kRplCodeDio;
  msg.body = dio.encodeBody();

  net::Ipv6Header ip;
  ip.src = net::Ipv6Addr::linkLocalFromShort(net::Mac16{0x0007});
  ip.dst = net::Ipv6Addr::allNodesMulticast();
  ip.hopLimit = 255;

  net::Ieee802154Frame frame;
  frame.seq = 9;
  frame.panId = 0x2100;
  frame.dst = net::Mac16{net::Mac16::kBroadcast};
  frame.src = net::Mac16{0x0007};
  frame.payload.push_back(net::kDispatchIpv6Uncompressed);
  const Bytes inner = ip.encode(msg.encode(ip.src, ip.dst));
  frame.payload.insert(frame.payload.end(), inner.begin(), inner.end());
  return frame.encode();
}

Bytes buildBleAdvFrame() {
  net::BleAdvPdu pdu;
  pdu.type = net::BlePduType::kAdvInd;
  pdu.advAddr = net::Mac48{{0x5c, 0xf3, 0x70, 0x01, 0x02, 0x03}};
  pdu.advData = {0x02, 0x01, 0x06, 0x03, 0x03, 0x0d, 0x18};
  return pdu.encode();
}

void expectRoundtrip(net::Medium medium, const Bytes& frame) {
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = frame;
  EXPECT_EQ(net::serialize(net::dissect(pkt)), frame);
}

TEST(EvasionMutators, RewriteAndPadPreserveCodecInvariants) {
  const Bytes dioFrame = buildRplDioWpanFrame();
  const Bytes bleFrame = buildBleAdvFrame();

  const auto spoofedDio =
      ev::rewriteLinkSource(net::Medium::kIeee802154, dioFrame, 3);
  ASSERT_TRUE(spoofedDio.has_value());
  EXPECT_NE(*spoofedDio, dioFrame);
  expectRoundtrip(net::Medium::kIeee802154, *spoofedDio);

  const auto paddedDio = ev::padFrame(net::Medium::kIeee802154, dioFrame, 16);
  ASSERT_TRUE(paddedDio.has_value());
  EXPECT_EQ(paddedDio->size(), dioFrame.size() + 16);
  expectRoundtrip(net::Medium::kIeee802154, *paddedDio);

  const auto spoofedBle =
      ev::rewriteLinkSource(net::Medium::kBluetooth, bleFrame, 3);
  ASSERT_TRUE(spoofedBle.has_value());
  EXPECT_NE(*spoofedBle, bleFrame);
  expectRoundtrip(net::Medium::kBluetooth, *spoofedBle);

  // BLE advertising PDUs carry no IP layer: mimicry padding must refuse.
  EXPECT_FALSE(ev::padFrame(net::Medium::kBluetooth, bleFrame, 16).has_value());
}

/// One corpus file in the tests/corpus format (comment, medium token, 16
/// hex bytes a line), pinned through the golden flow. The committed files
/// are also replayed by FuzzCorpus.CommittedRegressionInputs.
void checkCorpus(const std::string& name, const std::string& comment,
                 const char* mediumToken, const Bytes& frame) {
  std::vector<std::string> lines = {"# " + comment, mediumToken};
  for (std::size_t i = 0; i < frame.size(); ++i) {
    char hex[4];
    std::snprintf(hex, sizeof(hex), i % 16 == 0 ? "%02x" : " %02x", frame[i]);
    if (i % 16 == 0) lines.emplace_back();
    lines.back() += hex;
  }
  test::checkGolden(KALIS_TEST_CORPUS_DIR, name, lines);
}

TEST(EvasionCorpus, CommittedMutatedFramesAreStable) {
  const Bytes dioFrame = buildRplDioWpanFrame();
  const Bytes bleFrame = buildBleAdvFrame();
  const Bytes spoofedDio =
      *ev::rewriteLinkSource(net::Medium::kIeee802154, dioFrame, 3);
  const Bytes paddedDio = *ev::padFrame(net::Medium::kIeee802154, dioFrame, 16);
  const Bytes spoofedPaddedDio =
      *ev::padFrame(net::Medium::kIeee802154, spoofedDio, 24);
  const Bytes spoofedBle =
      *ev::rewriteLinkSource(net::Medium::kBluetooth, bleFrame, 9);
  checkCorpus("evasion_rpl_dio_spoofed_src.hex",
              "RPL DIO, link source spoofed (rewriteLinkSource identity 3)",
              "wpan", spoofedDio);
  checkCorpus("evasion_rpl_dio_padded.hex",
              "RPL DIO, 16 bytes of mimicry trailer padding (padFrame)",
              "wpan", paddedDio);
  checkCorpus("evasion_rpl_dio_spoofed_padded.hex",
              "RPL DIO, spoofed source + 24 bytes mimicry padding", "wpan",
              spoofedPaddedDio);
  checkCorpus("evasion_ble_adv_spoofed_adva.hex",
              "BLE ADV_IND, AdvA spoofed (rewriteLinkSource identity 9)",
              "ble", spoofedBle);
}

// --- the alert diff's evasion lane -------------------------------------------

ids::Alert makeAlert(ids::AttackType type, const std::string& suspect) {
  ids::Alert alert;
  alert.type = type;
  alert.time = seconds(30);
  alert.moduleName = "IcmpFloodModule";
  alert.victimEntity = "thermostat";
  alert.suspectEntities = {suspect};
  return alert;
}

TEST(EvasionDiffLane, SuppressedAlertClassifiesAsEvasion) {
  const auto alert = makeAlert(ids::AttackType::kIcmpFlood, "attacker");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {alert}, 0), outputOf("evaded", {}, 40));
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, chaos::DivergenceKind::kEvasion);
  EXPECT_FALSE(diff.hasRegression());
}

TEST(EvasionDiffLane, AttributionShiftWithinTypeClassifiesAsEvasion) {
  const auto base = makeAlert(ids::AttackType::kIcmpFlood, "attacker");
  const auto shifted = makeAlert(ids::AttackType::kIcmpFlood, "spoof-12");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {base}, 0), outputOf("evaded", {shifted}, 40));
  ASSERT_EQ(diff.divergences.size(), 2u);
  for (const chaos::Divergence& d : diff.divergences) {
    EXPECT_EQ(d.kind, chaos::DivergenceKind::kEvasion) << d.detail;
  }
  EXPECT_FALSE(diff.hasRegression());
}

TEST(EvasionDiffLane, SemanticTypeChangeIsARegression) {
  const auto base = makeAlert(ids::AttackType::kBlackhole, "relay");
  const auto changed =
      makeAlert(ids::AttackType::kSelectiveForwarding, "relay");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {base}, 0), outputOf("evaded", {changed}, 40));
  // The perturbed run raised an attack type the baseline never did: the
  // suppression is evasion, the new-type alert is a semantics regression.
  EXPECT_EQ(diff.count(chaos::DivergenceKind::kEvasion), 1u);
  EXPECT_EQ(diff.count(chaos::DivergenceKind::kRegression), 1u);
  EXPECT_TRUE(diff.hasRegression());
}

TEST(EvasionDiffLane, WithoutPerturbationTalliesNothingIsExcused) {
  const auto alert = makeAlert(ids::AttackType::kIcmpFlood, "attacker");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {alert}, 0), outputOf("subject", {}, 0));
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, chaos::DivergenceKind::kRegression);
}

// --- golden evaded runs, one per attack family -------------------------------

std::vector<std::string> evadedSiem(const std::string& scenario,
                                    double budget) {
  const ev::EvasionPlan plan{.budget = budget};
  const auto evaded = scenarios::capture(scenario, 100, nullptr, &plan);
  EXPECT_TRUE(evaded.has_value()) << scenario;
  return ids::toSiemLines(
      scenarios::evaluate(SystemKind::kKalis, *evaded).alerts);
}

TEST(EvasionGolden, IcmpFloodFamilyEvadedStream) {
  const auto lines = evadedSiem("ICMP Flood", 0.25);
  ASSERT_FALSE(lines.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "evasion_icmp_flood_b25.siem.jsonl",
                    lines);
}

TEST(EvasionGolden, SmurfFamilyEvadedStream) {
  const auto lines = evadedSiem("Smurf", 0.5);
  ASSERT_FALSE(lines.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "evasion_smurf_b50.siem.jsonl",
                    lines);
}

TEST(EvasionGolden, ForwardingFamilyEvadedStream) {
  const auto lines = evadedSiem("Blackhole", 1.0);
  ASSERT_FALSE(lines.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "evasion_blackhole_b100.siem.jsonl",
                    lines);
}

TEST(EvasionGolden, WpanFamilyEvadedStream) {
  const auto lines = evadedSiem("Sybil", 0.75);
  ASSERT_FALSE(lines.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "evasion_sybil_b75.siem.jsonl",
                    lines);
}

}  // namespace
}  // namespace kalis
