// Shared fixtures of kalis_tests: the one golden-file check and its
// regenerate flow, the reader of the committed corpus, and the packets,
// engines and module harness that more than one suite builds its runs from.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/alert_diff.hpp"
#include "kalis/data_store.hpp"
#include "kalis/module.hpp"
#include "net/ieee802154.hpp"
#include "net/packet.hpp"
#include "pipeline/engine.hpp"
#include "pipeline/kalis_engine.hpp"
#include "trace/trace_file.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace kalis::test {

// --- golden and temporary files ----------------------------------------------

/// True when KALIS_REGEN_GOLDEN is set to anything but "" or "0": golden
/// checks then rewrite their files instead of comparing.
bool regenRequested();

/// The lines of `text`, without their terminators.
std::vector<std::string> linesOf(const std::string& text);

/// One frame's share of a golden file: the lines it writes there, and its
/// full current rendering, printed when those lines drift.
struct GoldenFrame {
  std::vector<std::string> lines;
  std::string rendering;
};

/// A frame written out in full: a `# <ctx>` line, then its rendering.
GoldenFrame fullFrame(const std::string& ctx, const std::string& rendering);

/// Compares the frames' lines, each ended by '\n', with the committed file
/// `dir/name` byte for byte, or rewrites the file and skips the test when
/// regenRequested(). A drift fails once, naming the first differing line
/// with both versions of it, the current rendering of up to three frames
/// whose lines differ, and the command that regenerates the file by
/// rerunning the current test.
void checkGolden(const std::filesystem::path& dir, const std::string& name,
                 const std::vector<GoldenFrame>& frames);

/// A plain line golden: each line is a one-line frame.
void checkGolden(const std::filesystem::path& dir, const std::string& name,
                 const std::vector<std::string>& lines);

/// `name` in the system's temporary directory.
std::string tempPath(const std::string& name);

// --- the committed corpus ----------------------------------------------------

using NamedPacket = std::pair<std::string, net::CapturedPacket>;

/// Reads every `.hex` file of tests/corpus, in filename order (directory
/// iteration order is unspecified), as packetOf(medium, bytes). A file holds
/// a medium token (wpan, wifi or ble) and then hex bytes; `#` starts a
/// comment.
void loadCorpus(std::vector<NamedPacket>& out);

// --- packets -----------------------------------------------------------------

/// `raw` as captured on `medium` at 1 s.
net::CapturedPacket packetOf(net::Medium medium, Bytes raw,
                             double rssiDbm = net::RxMeta{}.rssiDbm);

/// Up to `maxLen` random bytes.
Bytes randomBytes(Rng& rng, std::size_t maxLen);

/// Station address 02:00:00:00:00:<tag>.
net::Mac48 mac(std::uint8_t tag);

/// WiFi data frame from station `tag` to the AP (station 0xfe) at `ts`,
/// tagged with capture sequence `seq`.
net::CapturedPacket wifiFrom(std::uint8_t tag, SimTime ts,
                             std::uint64_t seq = 0);

/// `frame` as captured on 802.15.4 at `t`.
net::CapturedPacket wpanPacket(const net::Ieee802154Frame& frame, SimTime t,
                               double rssi = -60.0);

/// A CTP data frame in a TinyOS AM envelope.
net::CapturedPacket ctpDataPacket(net::Mac16 linkSrc, net::Mac16 linkDst,
                                  net::Mac16 origin, std::uint8_t seqno,
                                  std::uint8_t thl, SimTime t,
                                  double rssi = -60.0,
                                  Bytes payload = bytesOf("pp"));

/// A broadcast CTP routing beacon naming `src` as its own parent.
net::CapturedPacket ctpBeaconPacket(net::Mac16 src, std::uint16_t etx,
                                    SimTime t);

// --- modules -----------------------------------------------------------------

/// Drives one module directly: a "K1" knowledge base, a data store and the
/// alerts the module raised.
struct ModuleHarness {
  ids::KnowledgeBase kb{"K1"};
  ids::DataStore store;
  std::vector<ids::Alert> alerts;

  ids::ModuleContext ctx(SimTime now) {
    return ids::ModuleContext{
        kb, store, now,
        [this](ids::Alert a) { alerts.push_back(std::move(a)); }};
  }
  void feed(ids::Module& module, const net::CapturedPacket& pkt) {
    auto context = ctx(pkt.meta.timestamp);
    module.onPacket(pkt, net::dissect(pkt), context);
  }
  void tick(ids::Module& module, SimTime now) {
    auto context = ctx(now);
    module.onTick(context);
  }
  bool sawAttack(ids::AttackType type) const {
    for (const ids::Alert& alert : alerts) {
      if (alert.type == type) return true;
    }
    return false;
  }
};

// --- full-library Kalis runs -------------------------------------------------

/// A pipeline's full-library Kalis engine: shard 0 is node "K1" on a
/// Simulator(seed) clock, which finish() runs to `drainUntil`.
pipeline::KalisEngineOptions fullLibraryEngine(std::uint64_t seed,
                                               SimTime drainUntil);

/// What a fresh full-library KalisNode "K1" did while replaying a trace.
struct NodeReplay {
  /// Every knowledge change, in order, as "<time us> label@entity=value"
  /// ("label=value" for entity-less ones).
  std::vector<std::string> knowledgeChanges;
  std::vector<ids::Alert> alerts;
};

/// Replays `trace` into a fresh full-library KalisNode "K1" on a
/// Simulator(seed) clock run to `until`. `setUp`, if given, runs on the
/// node before the standard library is added.
NodeReplay replayIntoNode(
    const trace::Trace& trace, std::uint64_t seed, SimTime until,
    const std::function<void(ids::KalisNode&)>& setUp = {});

/// The SIEM lines of replayIntoNode(trace, seed, drainUntil): the stream a
/// one-worker Pipeline with fullLibraryEngine(seed, drainUntil) reproduces.
std::vector<std::string> replaySiemLines(const trace::Trace& trace,
                                         std::uint64_t seed,
                                         SimTime drainUntil);

// --- knowledge and alerts ----------------------------------------------------

/// A collective knowgget.
ids::Knowgget knowgget(const std::string& creator, const std::string& label,
                       const std::string& value,
                       const std::string& entity = "");

using KnowggetView =
    std::set<std::tuple<std::string, std::string, std::string, std::string>>;

/// Comparable view of a knowgget set: (creator, label, entity, value).
KnowggetView viewOf(const std::vector<ids::Knowgget>& ks);

/// Counters shared across shard engines (engines die with their workers).
struct ExchangeProbe {
  std::atomic<std::uint64_t> appliedBeforeFinish{0};
  std::atomic<std::uint64_t> appliedAfterFinish{0};
};

/// Minimal PacketEngine with a real KnowledgeBase ("E<shard>"): every
/// packet bumps a collective per-engine packet counter, remote knowggets go
/// through putRemote. Mirrors what KalisShardEngine does without the full
/// stack. `probe`, if given, counts the remote knowggets accepted before and
/// after finish(); each packet first sleeps `delay`.
class KnowledgeEngine : public pipeline::PacketEngine {
 public:
  explicit KnowledgeEngine(std::size_t shard, ExchangeProbe* probe = nullptr,
                           std::chrono::microseconds delay = {})
      : kb_("E" + std::to_string(shard)), probe_(probe), delay_(delay) {
    kb_.addCollectiveSink(&buffer_);
  }

  void onPacket(const net::CapturedPacket& pkt) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    watermark_ = pkt.meta.timestamp;
    ++packets_;
    kb_.put("PacketCount", static_cast<long long>(packets_), "",
            /*collective=*/true);
  }
  std::vector<ids::Alert> takeAlerts() override { return {}; }
  SimTime watermark() const override { return watermark_; }
  void finish() override { finished_ = true; }

  std::vector<ids::Knowgget> takeCollectiveUpdates() override {
    return std::exchange(buffer_.pending, {});
  }
  bool applyRemoteKnowledge(const ids::Knowgget& k) override {
    const bool accepted = kb_.putRemote(k);
    if (accepted && probe_ != nullptr) {
      (finished_ ? probe_->appliedAfterFinish : probe_->appliedBeforeFinish)
          .fetch_add(1, std::memory_order_relaxed);
    }
    return accepted;
  }
  std::vector<ids::Knowgget> collectiveKnowledge(bool ownedOnly) const override {
    std::vector<ids::Knowgget> out;
    for (ids::Knowgget& k : kb_.all()) {
      if (!k.collective) continue;
      if (ownedOnly && k.creator != kb_.selfId()) continue;
      out.push_back(std::move(k));
    }
    return out;
  }

 private:
  struct BufferSink final : ids::CollectiveSink {
    void onCollective(const ids::Knowgget& k) override { pending.push_back(k); }
    std::vector<ids::Knowgget> pending;
  };

  ids::KnowledgeBase kb_;
  ExchangeProbe* probe_;
  std::chrono::microseconds delay_;
  BufferSink buffer_;
  std::uint64_t packets_ = 0;
  SimTime watermark_ = 0;
  bool finished_ = false;
};

/// A chaos::RunOutput holding `alerts` and their SIEM lines.
chaos::RunOutput outputOf(std::string label, std::vector<ids::Alert> alerts,
                          std::uint64_t evasionPerturbed = 0);

}  // namespace kalis::test
