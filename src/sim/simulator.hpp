// Discrete-event scheduler with a virtual clock.
//
// Single-threaded and fully deterministic: ties in time are broken by
// insertion order, and all randomness flows from the seed passed in.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace kalis::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {}

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedules fn to run `delay` after the current time; a delay past the
  /// end of virtual time saturates there instead of wrapping into the past.
  void schedule(Duration delay, std::function<void()> fn) {
    at(delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay, std::move(fn));
  }

  /// Schedules fn at an absolute virtual time (>= now).
  void at(SimTime t, std::function<void()> fn) {
    queue_.push(Event{t, nextSeq_++, std::move(fn)});
    queueDepth_.set(static_cast<double>(queue_.size()));
  }

  /// Runs the next pending event; returns false if the queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    if (wallStartNs_ == 0) wallStartNs_ = obs::nowNs();
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    eventsDispatched_.inc();
    ev.fn();
    return true;
  }

  /// Runs all events with time <= t, then advances the clock to exactly t.
  void runUntil(SimTime t) {
    while (!queue_.empty() && queue_.top().time <= t) step();
    if (t > now_) now_ = t;
  }

  /// Drains the queue (bounded by hardStop to guard against periodic
  /// re-scheduling loops).
  void runAll(SimTime hardStop = kSimTimeMax) {
    while (!queue_.empty() && queue_.top().time <= hardStop) step();
  }

  // --- observability (kalis::obs) --------------------------------------------
  const obs::Counter& eventsDispatched() const { return eventsDispatched_; }
  /// Queue depth at the last schedule, plus its high-water mark.
  const obs::Gauge& queueDepth() const { return queueDepth_; }

  /// Wall nanoseconds since the first step() (0 before any event ran).
  std::uint64_t wallElapsedNs() const {
    return wallStartNs_ ? obs::nowNs() - wallStartNs_ : 0;
  }

  /// Virtual seconds simulated per wall second; the headroom measure behind
  /// the "fast as the hardware allows" goal. 0 until the first event runs.
  double simWallRatio() const {
    const std::uint64_t wall = wallElapsedNs();
    if (wall == 0) return 0.0;
    return toSeconds(now_) / (static_cast<double>(wall) / 1e9);
  }

  /// Appends event-loop metrics under `prefix` (e.g. "sim").
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const {
    reg.counter(prefix + ".events_dispatched", eventsDispatched_);
    reg.gauge(prefix + ".pending_events", queueDepth_);
    reg.counter(prefix + ".sim_time_us", now_);
    reg.counter(prefix + ".wall_time_ns", wallElapsedNs());
    reg.gauge(prefix + ".sim_wall_ratio", simWallRatio(), simWallRatio());
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  Rng rng_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  obs::Counter eventsDispatched_;
  obs::Gauge queueDepth_;
  std::uint64_t wallStartNs_ = 0;
};

}  // namespace kalis::sim
