// Kalis detection backend for the ingestion pipeline: one complete,
// thread-confined Kalis stack per shard.
//
// Each shard engine owns a private discrete-event Simulator and KalisNode
// (Knowledge Base, Data Store, Module Manager, full module library). Every
// packet takes the synchronous path's step, KalisNode::replayFeed: advance
// the shard's virtual clock to the capture timestamp — firing any pending
// 1 s ticks exactly as live operation would — then dissect the packet into
// one stack Dissection and feed it. Flood windows, watchdog state and
// traffic statistics therefore behave identically to the single-box
// reproduction for every flow the shard owns.
//
// Because the EngineFactory runs on the worker thread, all shard state is
// built, mutated and destroyed by that one thread; the debug-build
// thread-ownership checkers in KnowledgeBase / DataStore enforce this.
#pragma once

#include <functional>
#include <string>

#include "kalis/kalis_node.hpp"
#include "pipeline/engine.hpp"

namespace kalis::pipeline {

struct KalisEngineOptions {
  /// Seed of shard i's private simulator: seedBase + i. A one-worker
  /// pipeline with seedBase s is bit-identical to a direct KalisNode on
  /// Simulator(s).
  std::uint64_t seedBase = 1;
  /// Node options for every shard. Shard 0 keeps `node.id` verbatim (so a
  /// one-worker pipeline matches a directly driven node); shard i > 0 gets
  /// "<id>-s<i>".
  ids::KalisNode::Options node{};
  /// Module/knowledge setup, run right after construction and before
  /// start() — e.g. [](ids::KalisNode& n) { n.useStandardLibrary(); }.
  std::function<void(ids::KalisNode&)> configure;
  /// finish() runs each shard's clock to this virtual time, letting
  /// tick-driven detection windows close after the last packet (mirror of
  /// the runUntil() tail in synchronous replay). 0 = no drain.
  SimTime drainUntil = 0;
};

/// Factory for Pipeline: builds one Kalis shard engine per worker.
EngineFactory makeKalisEngineFactory(KalisEngineOptions options);

}  // namespace kalis::pipeline
