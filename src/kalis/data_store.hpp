// The Data Store (paper §IV-B2): listens for new-packet events, keeps a
// sliding window of the most recent packets in memory, optionally logs all
// traffic to disk in the KTRC format, and can replay logs transparently to
// the detection modules.
//
// Shard-confinement contract (DESIGN.md §7): a DataStore instance — window,
// disk log and counters — is owned by exactly one thread for its lifetime.
// It is deliberately lock-free; multi-worker deployments give each pipeline
// shard its own DataStore instead of sharing one behind a global lock.
// Debug builds bind an ownership checker on the first mutation and abort on
// access from any other thread. Reads (window(), memoryBytes()) follow the
// same confinement; there is no synchronization to make them safe
// elsewhere. Unlike the KnowledgeBase — whose collective knowggets cross
// shards as copies through the pipeline's KnowledgeExchange rings
// (DESIGN.md §8) — DataStore contents never leave the owning shard.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "trace/trace_file.hpp"
#include "util/metrics.hpp"
#include "util/sliding_window.hpp"
#include "util/thread_check.hpp"

namespace kalis::ids {

class DataStore {
 public:
  struct Config {
    std::size_t windowCapacity = 4096;  ///< packets kept in memory
    bool logToDisk = false;
    std::string logPath;                ///< required when logToDisk
  };

  DataStore();  ///< default configuration
  explicit DataStore(Config config);
  ~DataStore();

  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  /// Appends a captured packet to the window (and the disk log if enabled).
  void onPacket(const net::CapturedPacket& pkt);

  const RingWindow<net::CapturedPacket>& window() const { return window_; }
  std::uint64_t totalPackets() const { return totalPackets_; }

  /// Flushes the disk log buffer. Returns false on I/O failure.
  bool flush();

  /// Loads a previously written log for offline analysis / replay.
  static std::optional<trace::Trace> loadLog(const std::string& path);

  /// Live memory footprint (window contents), for the RAM proxy.
  std::size_t memoryBytes() const;

  // --- observability (kalis::obs) --------------------------------------------
  /// Packets dropped off the back of the in-memory window.
  const obs::Counter& windowEvictions() const { return windowEvictions_; }

  /// Appends Data Store metrics under `prefix` (e.g. "kalis.data_store").
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  util::ThreadOwnershipChecker owner_;
  Config config_;
  RingWindow<net::CapturedPacket> window_;
  trace::TraceWriter logWriter_;
  std::uint64_t totalPackets_ = 0;
  bool dirty_ = false;
  obs::Counter windowEvictions_;
  obs::Counter loggedPackets_;  ///< packets appended to the on-disk KTRC log
};

}  // namespace kalis::ids
