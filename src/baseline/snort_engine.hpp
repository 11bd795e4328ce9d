// The Snort-like engine: evaluates every rule against every parsable packet.
//
// Faithful to the properties the paper's comparison rests on:
//  - it only understands IP traffic captured on WiFi — "Snort is unable to
//    intercept and analyze the traffic" on ZigBee/802.15.4 (§VI-B2);
//  - it runs the whole rule list per packet ("running through a large rule
//    list ... usually results in more false positives", §VII) — reflected in
//    the CPU-proxy work units;
//  - threshold rules track per-src/per-dst counts over sliding windows.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "baseline/snort_rule.hpp"
#include "kalis/alert.hpp"
#include "net/packet.hpp"

namespace kalis::baseline {

class SnortEngine {
 public:
  /// Loads rules from text; returns the number loaded (parse errors are
  /// collected in parseErrors()).
  std::size_t loadRules(std::string_view text);
  std::size_t ruleCount() const { return rules_.size(); }
  const std::vector<std::string>& parseErrors() const { return parseErrors_; }

  /// The primary overload consumes the shared capture-path Dissection (no
  /// re-dissection); the convenience overload dissects internally for tests
  /// and direct feeds.
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis);
  void onPacket(const net::CapturedPacket& pkt);

  const std::vector<ids::Alert>& alerts() const { return alerts_; }

  // --- resource proxies ---------------------------------------------------
  std::uint64_t workUnits() const { return workUnits_; }
  std::uint64_t packetsProcessed() const { return packetsProcessed_; }
  std::uint64_t packetsUnparsed() const { return packetsUnparsed_; }
  std::size_t memoryBytes() const;

 private:
  struct ThresholdState {
    std::deque<SimTime> hits;  ///< per (rule, track key)
  };

  bool matches(const SnortRule& rule, const net::Dissection& dis) const;
  void fire(const SnortRule& rule, const net::Dissection& dis, SimTime now);

  std::vector<SnortRule> rules_;
  std::vector<std::string> parseErrors_;
  std::vector<ids::Alert> alerts_;
  std::map<std::string, ThresholdState> thresholds_;
  std::map<std::string, SimTime> lastFired_;  ///< alert rate limiting
  std::uint64_t workUnits_ = 0;
  std::uint64_t packetsProcessed_ = 0;
  std::uint64_t packetsUnparsed_ = 0;
};

}  // namespace kalis::baseline
