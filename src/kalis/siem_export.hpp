// SIEM integration (paper §I: Kalis "can act as data source for multisource
// security information management (SIEM) systems").
//
// Serializes alerts and knowgget changes into JSON-lines events that a SIEM
// collector can ingest, and can stream them to a sink (file, socket bridge,
// test buffer). The format is self-describing and versioned:
//
//   {"v":1,"kind":"alert","ts":12.5,"attack":"ICMPFlood","module":"...",
//    "victim":"10.0.0.2","suspects":["02:4b:.."],"confidence":1.0,
//    "detail":"..."}
//   {"v":1,"kind":"knowgget","ts":3.0,"key":"K1$Multihop","value":"true",
//    "collective":false}
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kalis/alert.hpp"
#include "kalis/knowledge.hpp"

namespace kalis::ids {

/// Escapes a string for inclusion in a JSON string literal.
std::string jsonEscape(std::string_view s);

/// One alert as a JSON-lines record (no trailing newline).
std::string toSiemJson(const Alert& alert);

/// Every alert as a JSON-lines record, in order.
inline std::vector<std::string> toSiemLines(const std::vector<Alert>& alerts) {
  std::vector<std::string> lines;
  lines.reserve(alerts.size());
  for (const Alert& alert : alerts) lines.push_back(toSiemJson(alert));
  return lines;
}

/// One knowgget change as a JSON-lines record.
std::string toSiemJson(const Knowgget& knowgget);

/// Streams Kalis events to a line sink. Wire it to a node with
/// watchKnowledge(node.kb()) for KB changes and exportAlert from the node's
/// alert sink for alerts.
class SiemExporter {
 public:
  using LineSink = std::function<void(const std::string& line)>;

  explicit SiemExporter(LineSink sink) : sink_(std::move(sink)) {}

  void exportAlert(const Alert& alert) {
    sink_(toSiemJson(alert));
    ++alertsExported_;
  }
  void exportKnowgget(const Knowgget& knowgget) {
    sink_(toSiemJson(knowgget));
    ++knowggetsExported_;
  }

  /// Subscribes to every knowgget label; call before node.start(). Alert
  /// export must be wired through the node's alert sink by the caller (the
  /// node has a single sink; compose if needed).
  void watchKnowledge(KnowledgeBase& kb) {
    kb.subscribe("*", [this](const Knowgget& k) { exportKnowgget(k); });
  }

  std::uint64_t alertsExported() const { return alertsExported_; }
  std::uint64_t knowggetsExported() const { return knowggetsExported_; }

 private:
  LineSink sink_;
  std::uint64_t alertsExported_ = 0;
  std::uint64_t knowggetsExported_ = 0;
};

}  // namespace kalis::ids
