#include "support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "net/ctp.hpp"
#include "net/ieee80211.hpp"
#include "sim/simulator.hpp"

namespace kalis::test {

// --- golden and temporary files ----------------------------------------------

bool regenRequested() {
  const char* env = std::getenv("KALIS_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::vector<std::string> linesOf(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream split(text);
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

GoldenFrame fullFrame(const std::string& ctx, const std::string& rendering) {
  GoldenFrame frame{{"# " + ctx}, "# " + ctx + '\n' + rendering};
  for (std::string& line : linesOf(rendering)) {
    frame.lines.push_back(std::move(line));
  }
  return frame;
}

void checkGolden(const std::filesystem::path& dir, const std::string& name,
                 const std::vector<GoldenFrame>& frames) {
  std::string produced;
  std::vector<std::string> lines;
  std::vector<std::size_t> frameOfLine;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (const std::string& line : frames[f].lines) {
      produced += line + '\n';
      lines.push_back(line);
      frameOfLine.push_back(f);
    }
  }
  const std::filesystem::path path = dir / name;
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string regen =
      "KALIS_REGEN_GOLDEN=1 ./build/tests/kalis_tests --gtest_filter='" +
      std::string(test->test_suite_name()) + "." + test->name() + "'";
  if (regenRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << produced;
    if (!out) {
      ADD_FAILURE() << "cannot write " << path;
      return;
    }
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << path << "; create it with\n  "
                  << regen;
    return;
  }
  std::stringstream committed;
  committed << in.rdbuf();
  if (committed.str() == produced) return;

  // The first differing line, and the frames of the first three lines that
  // differ.
  const std::vector<std::string> expected = linesOf(committed.str());
  constexpr std::size_t kReported = 3;
  std::vector<std::size_t> drifted;
  std::string firstDiff = "its end: the golden file lacks a final newline";
  const std::size_t n = std::max(lines.size(), expected.size());
  for (std::size_t i = 0; i < n && drifted.size() < kReported; ++i) {
    if (i < lines.size() && i < expected.size() && lines[i] == expected[i]) {
      continue;
    }
    if (drifted.empty()) {
      firstDiff = "line " + std::to_string(i + 1) + ":\n  golden:   " +
                  (i < expected.size() ? expected[i] : "<end of file>") +
                  "\n  produced: " +
                  (i < lines.size() ? lines[i] : "<end of output>");
    }
    if (lines.empty()) break;
    const std::size_t f = frameOfLine[std::min(i, lines.size() - 1)];
    if (drifted.empty() || drifted.back() != f) drifted.push_back(f);
  }
  std::string report;
  for (const std::size_t f : drifted) report += frames[f].rendering;
  ADD_FAILURE() << path << " drifted at " << firstDiff
                << "\nCurrent rendering of the first frames that differ:\n"
                << report << "If the change is intended, regenerate with\n  "
                << regen << "\nand review the diff.";
}

void checkGolden(const std::filesystem::path& dir, const std::string& name,
                 const std::vector<std::string>& lines) {
  std::vector<GoldenFrame> frames;
  frames.reserve(lines.size());
  for (const std::string& line : lines) frames.push_back({{line}, line + '\n'});
  checkGolden(dir, name, frames);
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- the committed corpus ----------------------------------------------------

void loadCorpus(std::vector<NamedPacket>& out) {
  const std::filesystem::path dir = KALIS_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".hex") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::string stripped;
    bool inComment = false;
    for (char c : content) {
      if (c == '#') inComment = true;
      if (c == '\n') inComment = false;
      if (!inComment) stripped.push_back(c);
    }
    std::istringstream tokens(stripped);
    std::string mediumToken;
    ASSERT_TRUE(tokens >> mediumToken) << path;
    net::Medium medium = net::Medium::kWifi;
    if (mediumToken == "wpan") medium = net::Medium::kIeee802154;
    else if (mediumToken == "ble") medium = net::Medium::kBluetooth;
    else ASSERT_EQ(mediumToken, "wifi") << path;
    std::string hex, tok;
    while (tokens >> tok) hex += tok;
    ASSERT_EQ(hex.size() % 2, 0u) << path;
    Bytes raw;
    for (std::size_t i = 0; i < hex.size(); i += 2) {
      raw.push_back(static_cast<std::uint8_t>(
          std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
    out.emplace_back(path.filename().string(),
                     packetOf(medium, std::move(raw)));
  }
  EXPECT_GE(out.size(), 10u);
}

// --- packets -----------------------------------------------------------------

net::CapturedPacket packetOf(net::Medium medium, Bytes raw, double rssiDbm) {
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = std::move(raw);
  pkt.meta.timestamp = seconds(1);
  pkt.meta.rssiDbm = rssiDbm;
  return pkt;
}

Bytes randomBytes(Rng& rng, std::size_t maxLen) {
  Bytes out(rng.nextBelow(maxLen + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

net::Mac48 mac(std::uint8_t tag) {
  return net::Mac48{{0x02, 0x00, 0x00, 0x00, 0x00, tag}};
}

net::CapturedPacket wifiFrom(std::uint8_t tag, SimTime ts, std::uint64_t seq) {
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.toDs = true;
  frame.src = mac(tag);
  frame.dst = mac(0xfe);
  frame.bssid = mac(0xfe);
  frame.body = {0x01, 0x02, 0x03, tag};
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = ts;
  pkt.meta.captureSeq = seq;
  return pkt;
}

net::CapturedPacket wpanPacket(const net::Ieee802154Frame& frame, SimTime t,
                               double rssi) {
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kIeee802154;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  pkt.meta.rssiDbm = rssi;
  return pkt;
}

net::CapturedPacket ctpDataPacket(net::Mac16 linkSrc, net::Mac16 linkDst,
                                  net::Mac16 origin, std::uint8_t seqno,
                                  std::uint8_t thl, SimTime t, double rssi,
                                  Bytes payload) {
  net::CtpData data;
  data.origin = origin;
  data.seqno = seqno;
  data.thl = thl;
  data.payload = std::move(payload);
  net::Ieee802154Frame frame;
  frame.src = linkSrc;
  frame.dst = linkDst;
  frame.payload = net::wrapTinyosAm(net::kAmCtpData, BytesView(data.encode()));
  return wpanPacket(frame, t, rssi);
}

net::CapturedPacket ctpBeaconPacket(net::Mac16 src, std::uint16_t etx,
                                    SimTime t) {
  net::CtpRoutingBeacon beacon;
  beacon.parent = src;
  beacon.etx = etx;
  net::Ieee802154Frame frame;
  frame.src = src;
  frame.dst = net::Mac16{net::Mac16::kBroadcast};
  frame.payload =
      net::wrapTinyosAm(net::kAmCtpRouting, BytesView(beacon.encode()));
  return wpanPacket(frame, t);
}

// --- full-library Kalis runs -------------------------------------------------

pipeline::KalisEngineOptions fullLibraryEngine(std::uint64_t seed,
                                               SimTime drainUntil) {
  pipeline::KalisEngineOptions options;
  options.seedBase = seed;
  options.drainUntil = drainUntil;
  options.configure = [](ids::KalisNode& node) { node.useStandardLibrary(); };
  return options;
}

NodeReplay replayIntoNode(
    const trace::Trace& trace, std::uint64_t seed, SimTime until,
    const std::function<void(ids::KalisNode&)>& setUp) {
  sim::Simulator simulator(seed);
  ids::KalisNode node(simulator);
  if (setUp) setUp(node);
  node.useStandardLibrary();
  NodeReplay out;
  node.kb().subscribe("*", [&out](const ids::Knowgget& k) {
    std::string line = std::to_string(k.updated) + " " + k.label;
    if (!k.entity.empty()) line += "@" + k.entity;
    out.knowledgeChanges.push_back(line + "=" + k.value);
  });
  node.start();
  for (const net::CapturedPacket& pkt : trace) node.replayFeed(pkt);
  simulator.runUntil(until);
  out.alerts = node.alerts();
  return out;
}

std::vector<std::string> replaySiemLines(const trace::Trace& trace,
                                         std::uint64_t seed,
                                         SimTime drainUntil) {
  return ids::toSiemLines(replayIntoNode(trace, seed, drainUntil).alerts);
}

// --- knowledge and alerts ----------------------------------------------------

ids::Knowgget knowgget(const std::string& creator, const std::string& label,
                       const std::string& value, const std::string& entity) {
  ids::Knowgget k;
  k.creator = creator;
  k.label = label;
  k.value = value;
  k.entity = entity;
  k.collective = true;
  return k;
}

KnowggetView viewOf(const std::vector<ids::Knowgget>& ks) {
  KnowggetView out;
  for (const ids::Knowgget& k : ks) {
    out.emplace(k.creator, k.label, k.entity, k.value);
  }
  return out;
}

chaos::RunOutput outputOf(std::string label, std::vector<ids::Alert> alerts,
                          std::uint64_t evasionPerturbed) {
  chaos::RunOutput out;
  out.label = std::move(label);
  out.alerts = std::move(alerts);
  out.siemLines = ids::toSiemLines(out.alerts);
  out.evasionPerturbed = evasionPerturbed;
  return out;
}

}  // namespace kalis::test
