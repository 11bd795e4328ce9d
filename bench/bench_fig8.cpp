// Reproduces Fig. 8: effectiveness comparison of Kalis vs the traditional
// IDS approach across all eight attack scenarios (averages over seeds).
// Snort is not shown per scenario — as in the paper, it "could not run on
// any of the ZigBee-based attack scenarios" — but its aggregate appears in
// bench_table2.
#include <cstdio>
#include <vector>

#include "scenarios/scenarios.hpp"

using namespace kalis;
using scenarios::ScenarioResult;
using scenarios::SystemKind;

int main() {
  constexpr int kSeeds = 5;
  const std::vector<std::string>& names = scenarios::scenarioNames();

  std::vector<double> kalisDr(names.size()), kalisAcc(names.size());
  std::vector<double> tradDr(names.size()), tradAcc(names.size());

  for (int seed = 0; seed < kSeeds; ++seed) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const scenarios::Capture capture =
          *scenarios::capture(names[i], 100 + seed);
      const ScenarioResult kalis =
          scenarios::evaluate(SystemKind::kKalis, capture);
      const ScenarioResult trad =
          scenarios::evaluate(SystemKind::kTraditionalIds, capture);
      kalisDr[i] += kalis.detectionRate() / kSeeds;
      kalisAcc[i] += kalis.accuracy() / kSeeds;
      tradDr[i] += trad.detectionRate() / kSeeds;
      tradAcc[i] += trad.accuracy() / kSeeds;
    }
  }

  std::printf("Fig. 8: Kalis vs traditional IDS across all attack scenarios\n");
  std::printf("(averages over %d seeds)\n\n", kSeeds);
  std::printf("%-22s | %9s %9s | %9s %9s\n", "Scenario", "Kalis DR",
              "Trad DR", "Kalis Acc", "Trad Acc");
  std::printf("%.*s\n", 70,
              "----------------------------------------------------------------------");
  double sumKD = 0, sumTD = 0, sumKA = 0, sumTA = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%-22s | %8.0f%% %8.0f%% | %8.0f%% %8.0f%%\n",
                names[i].c_str(), kalisDr[i] * 100, tradDr[i] * 100,
                kalisAcc[i] * 100, tradAcc[i] * 100);
    sumKD += kalisDr[i];
    sumTD += tradDr[i];
    sumKA += kalisAcc[i];
    sumTA += tradAcc[i];
  }
  const double n = static_cast<double>(names.size());
  std::printf("%.*s\n", 70,
              "----------------------------------------------------------------------");
  std::printf("%-22s | %8.0f%% %8.0f%% | %8.0f%% %8.0f%%\n", "AVERAGE",
              sumKD / n * 100, sumTD / n * 100, sumKA / n * 100,
              sumTA / n * 100);
  return 0;
}
