// Golden SIEM-trace regression tests (DESIGN.md §9): the committed files in
// tests/golden/ hold the exact SIEM JSON stream of every Fig. 8 scenario,
// the collaborative wormhole run and one pipeline trace-replay run, the
// ordered knowledge changes of home, WSN-blackhole and ZigBee captures
// replayed into a KalisNode, and the sharded-pipeline matrix (every Fig. 8
// capture and the wormhole capture at 1/2/4/8 workers). Any byte of drift —
// alert content, ordering, JSON shape, timestamping, knowgget publication
// order, a matrix cell — fails the test with the first differing line and
// the command that regenerates the file (test::checkGolden); review the
// regenerated diff of tests/golden/ like any other code change.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "recorded_captures.hpp"
#include "scenarios/chaos_workload.hpp"
#include "scenarios/scenarios.hpp"
#include "support.hpp"

namespace kalis {
namespace {

/// "Selective Forwarding" -> "selective_forwarding".
std::string slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += c == ' ' ? '_' : static_cast<char>(std::tolower(
                                 static_cast<unsigned char>(c)));
  }
  return out;
}

/// The knowledge changes of a capture replayed into a full-library node.
std::vector<std::string> knowledgeChanges(const scenarios::Capture& rec) {
  return test::replayIntoNode(rec.packets, 1, rec.end).knowledgeChanges;
}

TEST(GoldenTrace, IcmpFloodScenarioSiemStream) {
  const scenarios::ScenarioResult result = scenarios::evaluate(
      scenarios::SystemKind::kKalis, scenarios::captureIcmpFlood(42));
  ASSERT_FALSE(result.alerts.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "icmp_flood_kalis_seed42.siem.jsonl",
                    ids::toSiemLines(result.alerts));
}

TEST(GoldenTrace, PipelineTraceReplaySiemStream) {
  const chaos::RunOutput out =
      scenarios::runTraceReplayWorkload(21, nullptr, 1);
  ASSERT_FALSE(out.siemLines.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR,
                    "trace_replay_pipeline_seed21.siem.jsonl", out.siemLines);
}

TEST(GoldenTrace, Fig8ScenarioSiemStreams) {
  for (const std::string& name : scenarios::scenarioNames()) {
    SCOPED_TRACE(name);
    const auto capture = scenarios::capture(name, 7);
    ASSERT_TRUE(capture.has_value());
    const scenarios::ScenarioResult result =
        scenarios::evaluate(scenarios::SystemKind::kKalis, *capture);
    ASSERT_FALSE(result.alerts.empty());
    test::checkGolden(KALIS_TEST_GOLDEN_DIR,
                      "fig8_" + slug(name) + "_kalis_seed7.siem.jsonl",
                      ids::toSiemLines(result.alerts));
  }
}

TEST(GoldenTrace, CollaborativeWormholeSiemStream) {
  const scenarios::WormholeResult result = scenarios::runWormhole(7, true);
  ASSERT_FALSE(result.combined.alerts.empty());
  test::checkGolden(KALIS_TEST_GOLDEN_DIR,
                    "wormhole_collaborative_seed7.siem.jsonl",
                    ids::toSiemLines(result.combined.alerts));
}

TEST(GoldenTrace, HomeKnowledgeChangeStream) {
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "kb_home_floods_seed7.txt",
                    knowledgeChanges(recorded::recordHomeFloods(7)));
}

TEST(GoldenTrace, WsnKnowledgeChangeStream) {
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "kb_wsn_blackhole_seed7.txt",
                    knowledgeChanges(scenarios::captureBlackhole(7)));
}

TEST(GoldenTrace, ZigbeeKnowledgeChangeStream) {
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "kb_zigbee_star_seed7.txt",
                    knowledgeChanges(recorded::recordZigbeeStar(7)));
}

// --- sharded-pipeline matrix (ROADMAP item 4) --------------------------------

/// Replays `capture` through a full-library Pipeline with the knowledge
/// exchange off (the default); shard 0 is "K1" on a seed-1 clock, as in
/// scenarios::evaluate.
std::vector<ids::Alert> replayThroughPipeline(
    const scenarios::Capture& capture, std::size_t workers) {
  pipeline::Options opts;
  opts.workers = workers;
  pipeline::Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                                    test::fullLibraryEngine(1, capture.end)));
  pipe.start();
  EXPECT_EQ(pipe.enqueueBatch(capture.packets.data(), capture.packets.size()),
            capture.packets.size());
  pipe.stop();
  return pipe.alerts();
}

/// Every Fig. 8 capture and the wormhole capture (both spots in one stream),
/// seed 7, at 1, 2, 4 and 8 workers. A cell holds the merged alert count,
/// detection rate and accuracy, and whether its SIEM stream equals the
/// one-worker stream; "divergent" names every cell where it does not. The
/// exchange-on cells are left out: with the exchange on, the wormhole
/// capture's multi-worker output depends on thread timing (DESIGN.md §8).
TEST(PipelineMatrix, Fig8AndWormholeAtOneToEightWorkers) {
  std::vector<scenarios::Capture> captures;
  for (const std::string& name : scenarios::scenarioNames()) {
    captures.push_back(*scenarios::capture(name, 7));
  }
  captures.push_back(scenarios::captureWormhole(7));

  std::vector<std::string> cells;
  std::vector<std::string> divergent;
  for (const scenarios::Capture& capture : captures) {
    SCOPED_TRACE(capture.scenario);
    std::vector<std::string> reference;
    std::string diverging;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      const std::vector<ids::Alert> alerts =
          replayThroughPipeline(capture, workers);
      const std::vector<std::string> stream = ids::toSiemLines(alerts);
      if (workers == 1) reference = stream;
      const bool same = stream == reference;
      if (!same) {
        diverging += (diverging.empty() ? "" : ", ") + std::to_string(workers);
      }
      const metrics::EvaluationResult eval =
          metrics::evaluate(capture.truth, alerts);
      char cell[256];
      std::snprintf(cell, sizeof(cell),
                    "    {\"capture\": \"%s\", \"workers\": %zu, "
                    "\"alerts\": %zu, \"detection_rate\": %.4f, "
                    "\"accuracy\": %.4f, \"equals_one_worker\": %s}",
                    capture.scenario.c_str(), workers, alerts.size(),
                    eval.detectionRate(), eval.classificationAccuracy(),
                    same ? "true" : "false");
      cells.emplace_back(cell);
    }
    if (!diverging.empty()) {
      divergent.push_back("    \"" + capture.scenario + "\": [" + diverging +
                          "]");
    }
  }

  std::vector<std::string> lines = {"{", "  \"seed\": 7,",
                                    "  \"knowledge_exchange\": false,",
                                    "  \"cells\": ["};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    lines.push_back(cells[i] + (i + 1 < cells.size() ? "," : ""));
  }
  lines.push_back("  ],");
  lines.push_back("  \"divergent\": {");
  for (std::size_t i = 0; i < divergent.size(); ++i) {
    lines.push_back(divergent[i] + (i + 1 < divergent.size() ? "," : ""));
  }
  lines.push_back("  }");
  lines.push_back("}");
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "pipeline_matrix.json", lines);
}

}  // namespace
}  // namespace kalis
