#include "attacks/evasion.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "net/codec.hpp"
#include "net/packet.hpp"
#include "util/checksum.hpp"
#include "util/strings.hpp"

namespace kalis::attacks::evasion {

namespace {

FrameTap gTap;

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

bool applyKey(EvasionPlan& p, std::string_view key, std::string_view value,
              std::string* error) {
  const auto asDouble = [&]() { return parseDouble(value); };
  const auto asInt = [&]() { return parseInt(value); };
  const auto bad = [&]() {
    return fail(error, "bad value for '" + std::string(key) +
                           "': " + std::string(value));
  };
  const auto asFlag = [&](bool& flag) {
    const auto v = parseBool(value);
    if (!v) return bad();
    flag = *v;
    return true;
  };
  if (key == "seed") {
    const auto v = asInt();
    if (!v || *v < 0) return bad();
    p.seed = static_cast<std::uint64_t>(*v);
  } else if (key == "budget") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return bad();
    p.budget = *v;
  } else if (key == "timing") {
    return asFlag(p.timing);
  } else if (key == "dilute") {
    return asFlag(p.dilute);
  } else if (key == "split") {
    return asFlag(p.split);
  } else if (key == "mimic") {
    return asFlag(p.mimic);
  } else if (key == "gap-ms") {
    const auto v = asDouble();
    if (!v || !toDuration(*v, milliseconds(1))) return bad();
    p.gapStretchMs = *v;
  } else if (key == "jitter-ms") {
    const auto v = asDouble();
    if (!v || !toDuration(*v, milliseconds(1))) return bad();
    p.jitterMs = *v;
  } else if (key == "dilute-max") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return bad();
    p.diluteMax = *v;
  } else if (key == "split-sources") {
    const auto v = asInt();
    if (!v || *v < 1 || *v > 250) return bad();
    p.splitSources = static_cast<int>(*v);
  } else if (key == "pad-max") {
    const auto v = asInt();
    if (!v || *v < 0 || *v > 512) return bad();
    p.padMax = static_cast<int>(*v);
  } else if (key == "forward-relief") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return bad();
    p.forwardRelief = *v;
  } else {
    return fail(error, "unknown evasion-plan key: " + std::string(key));
  }
  return true;
}

/// Single-technique preset: everything off except `keep`.
EvasionPlan onlyTechnique(bool EvasionPlan::*keep) {
  EvasionPlan p;
  p.timing = p.dilute = p.split = p.mimic = false;
  p.*keep = true;
  return p;
}

std::size_t mediumIndex(net::Medium m) { return static_cast<std::size_t>(m); }

}  // namespace

bool EvasionPlan::zero() const {
  return budget <= 0.0 || !(timing || dilute || split || mimic);
}

std::optional<EvasionPlan> EvasionPlan::parse(std::string_view spec,
                                              std::string* error) {
  EvasionPlan p;
  bool first = true;
  for (const std::string& rawPart : kalis::split(spec, ',')) {
    const std::string_view part = trim(rawPart);
    if (part.empty()) continue;
    if (first) {
      first = false;
      // A leading preset name seeds the plan; overrides follow.
      if (part == "none") {
        p.timing = p.dilute = p.split = p.mimic = false;
        continue;
      }
      if (part == "full") continue;  // the default: all techniques on
      if (part == "timing") {
        p = onlyTechnique(&EvasionPlan::timing);
        continue;
      }
      if (part == "dilute") {
        p = onlyTechnique(&EvasionPlan::dilute);
        continue;
      }
      if (part == "split") {
        p = onlyTechnique(&EvasionPlan::split);
        continue;
      }
      if (part == "mimic") {
        p = onlyTechnique(&EvasionPlan::mimic);
        continue;
      }
    }
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      fail(error, "expected key=value, got: " + std::string(part));
      return std::nullopt;
    }
    if (!applyKey(p, trim(part.substr(0, eq)), trim(part.substr(eq + 1)),
                  error)) {
      return std::nullopt;
    }
  }
  return p;
}

std::string EvasionPlan::describe() const {
  const EvasionPlan neutral;
  std::ostringstream oss;
  const char* sep = "";
  const auto emit = [&](const char* key, const std::string& value) {
    oss << sep << key << "=" << value;
    sep = ",";
  };
  if (budget > 0.0) emit("budget", formatDouble(budget));
  if (timing != neutral.timing) emit("timing", timing ? "1" : "0");
  if (dilute != neutral.dilute) emit("dilute", dilute ? "1" : "0");
  if (split != neutral.split) emit("split", split ? "1" : "0");
  if (mimic != neutral.mimic) emit("mimic", mimic ? "1" : "0");
  if (gapStretchMs != neutral.gapStretchMs) {
    emit("gap-ms", formatDouble(gapStretchMs));
  }
  if (jitterMs != neutral.jitterMs) emit("jitter-ms", formatDouble(jitterMs));
  if (diluteMax != neutral.diluteMax) {
    emit("dilute-max", formatDouble(diluteMax));
  }
  if (splitSources != neutral.splitSources) {
    emit("split-sources", std::to_string(splitSources));
  }
  if (padMax != neutral.padMax) emit("pad-max", std::to_string(padMax));
  if (forwardRelief != neutral.forwardRelief) {
    emit("forward-relief", formatDouble(forwardRelief));
  }
  emit("seed", std::to_string(seed));
  return oss.str();
}

// --- frame mutators ----------------------------------------------------------

std::optional<Bytes> rewriteLinkSource(net::Medium medium, const Bytes& frame,
                                       std::uint64_t identity) {
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = frame;
  net::Dissection d = net::dissect(pkt);
  const std::uint8_t tag = static_cast<std::uint8_t>((identity % 250) + 1);
  if (d.wpan) {
    // Spoof pool 0xEAxx: plausible short addresses no scenario assigns.
    d.wpan->src = net::Mac16{static_cast<std::uint16_t>(0xEA00 + tag)};
    d.wpan->wireFcs.reset();  // fresh CRC over the rewritten header
  } else if (d.wifi) {
    d.wifi->src = net::Mac48{{0x02, 0xEB, 0xAD, 0x00, 0x00, tag}};
    d.wifi->wireFcs.reset();
  } else if (d.ble) {
    d.ble->advAddr = net::Mac48{{0x02, 0xEB, 0xAD, 0x00, 0x01, tag}};
  } else {
    return std::nullopt;
  }
  return net::serialize(d);
}

std::optional<Bytes> padFrame(net::Medium medium, const Bytes& frame,
                              std::size_t pad) {
  if (pad == 0) return std::nullopt;
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = frame;
  const net::Dissection before = net::dissect(pkt);
  // Padding lands in the IP-layer trailer slack — the span the dissector
  // (and a real stack, which trusts the IP length field) tolerates. Frames
  // without an IP layer have no such slack; leave them alone.
  if (!before.ipv4 && !before.ipv6) return std::nullopt;

  std::size_t fcsLen = 0;
  if (medium == net::Medium::kIeee802154) {
    fcsLen = 2;
  } else if (medium == net::Medium::kWifi) {
    fcsLen = 4;
  } else {
    return std::nullopt;
  }
  if (frame.size() < fcsLen) return std::nullopt;

  Bytes padded;
  padded.reserve(frame.size() + pad);
  padded.insert(padded.end(), frame.begin(), frame.end() - fcsLen);
  padded.insert(padded.end(), pad, std::uint8_t{0});
  const BytesView covered(padded.data(), padded.size());
  if (medium == net::Medium::kIeee802154) {
    const std::uint16_t fcs = crc16Ccitt(covered);
    padded.push_back(static_cast<std::uint8_t>(fcs & 0xff));
    padded.push_back(static_cast<std::uint8_t>(fcs >> 8));
  } else {
    const std::uint32_t fcs = crc32(covered);
    for (int i = 0; i < 4; ++i) {
      padded.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xff));
    }
  }

  // Safety: the padded frame must still parse to the same packet type (the
  // slack must land in l3Trailer, not shift any parsed field).
  net::CapturedPacket check;
  check.medium = medium;
  check.raw = padded;
  if (net::dissect(check).type != before.type) return std::nullopt;
  return padded;
}

// --- the injector ------------------------------------------------------------

EvasionChaos::EvasionChaos(sim::World& world, const EvasionPlan& plan)
    : world_(world), plan_(plan), rng_(plan.seed) {
  inner_ = world_.faultInjector();
  world_.setFaultInjector(this);
  active_ = !plan_.zero();
  attackerNode_.resize(world_.nodeCount(), false);
  for (NodeId id = 0; id < world_.nodeCount(); ++id) {
    const std::string& name = world_.nameOf(id);
    attackerNode_[id] = name == "attacker" || startsWith(name, "replica");
  }
  nextFreeAt_.assign(world_.nodeCount() * 3, 0);
}

EvasionChaos::~EvasionChaos() {
  if (world_.faultInjector() == this) world_.setFaultInjector(inner_);
}

EvasionChaos::RxFault EvasionChaos::onReceive(NodeId from, NodeId to,
                                              net::Medium medium, SimTime now) {
  return inner_ ? inner_->onReceive(from, to, medium, now) : RxFault{};
}

EvasionChaos::TxFault EvasionChaos::onTransmit(NodeId from, net::Medium medium,
                                               const Bytes& frame,
                                               SimTime now) {
  // Non-attacker traffic — and any traffic under a zero plan — passes
  // through with no rng draws, preserving byte-identity with the
  // unperturbed run.
  if (!active_ || !isAttacker(from)) {
    return inner_ ? inner_->onTransmit(from, medium, frame, now) : TxFault{};
  }

  ++stats_.attackerFrames;
  const double budget = plan_.budget;
  TxFault fault;

  // 1. Rate dilution: the frame is never sent. Ground truth was recorded at
  //    burst time, so the attack instance stands while its symptom thins.
  if (plan_.dilute) {
    const double p = budget * plan_.diluteMax;
    if (p > 0.0 && rng_.nextBool(p)) {
      fault.drop = true;
      ++stats_.diluted;
      return fault;
    }
  }

  // 2. Timing: exponential gap stretching plus uniform jitter along a
  //    per-(node, medium) monotone cursor — bursts spread out below the
  //    flood modules' rate thresholds without reordering.
  if (plan_.timing) {
    const double gapMeanUs = budget * plan_.gapStretchMs * 1000.0;
    const double jitterUs = budget * plan_.jitterMs * 1000.0;
    // A draw past the end of virtual time (the exponential's tail on a huge
    // mean) saturates instead of overflowing the cast.
    Duration gap = 0;
    if (gapMeanUs > 0.0) {
      gap += toDuration(rng_.nextExponential(gapMeanUs), microseconds(1))
                 .value_or(kSimTimeMax);
    }
    if (jitterUs > 0.0) {
      gap += toDuration(rng_.nextDouble(0.0, jitterUs), microseconds(1))
                 .value_or(kSimTimeMax);
    }
    SimTime& cursor = nextFreeAt_[from * 3 + mediumIndex(medium)];
    const SimTime desired = std::max(now, cursor) + gap;
    cursor = desired;
    fault.extraDelay = desired - now;
    if (fault.extraDelay > 0) ++stats_.delayed;
  }

  // 3 + 4. Frame rewriting: symptom splitting (spoofed link source) and
  //        mimicry padding, applied to the same wire bytes.
  Bytes mutated;
  bool changed = false;
  if (plan_.split) {
    const auto pool =
        1 + static_cast<std::uint64_t>(budget * plan_.splitSources);
    if (pool > 1) {
      const std::uint64_t k = rng_.nextBelow(pool);
      if (k > 0) {
        if (auto rewritten = rewriteLinkSource(medium, frame, k)) {
          mutated = std::move(*rewritten);
          changed = true;
          ++stats_.rewritten;
        }
      }
    }
  }
  if (plan_.mimic) {
    const auto padBudget = static_cast<std::uint64_t>(budget * plan_.padMax);
    if (padBudget > 0) {
      const std::uint64_t pad = rng_.nextBelow(padBudget + 1);
      if (pad > 0) {
        if (auto padded = padFrame(medium, changed ? mutated : frame,
                                   static_cast<std::size_t>(pad))) {
          mutated = std::move(*padded);
          changed = true;
          ++stats_.padded;
        }
      }
    }
  }
  if (changed) {
    // Every perturbed frame must survive the PR-9 codec invariant — the
    // evasion layer forges traffic, it must not corrupt it.
    net::CapturedPacket check;
    check.medium = medium;
    check.raw = mutated;
    if (net::serialize(net::dissect(check)) != mutated) {
      ++stats_.roundtripViolations;
    }
    if (gTap) gTap(medium, mutated);
    fault.corrupted = std::move(mutated);
  }

  // Chain the inner injector (chaos) over the perturbed bytes; its faults
  // compose with ours.
  if (inner_) {
    TxFault innerFault = inner_->onTransmit(
        from, medium, fault.corrupted ? *fault.corrupted : frame, now);
    fault.drop = fault.drop || innerFault.drop;
    fault.duplicates += innerFault.duplicates;
    fault.extraDelay += innerFault.extraDelay;
    if (innerFault.corrupted) fault.corrupted = std::move(innerFault.corrupted);
  }
  return fault;
}

std::unique_ptr<EvasionChaos> installEvasionPlan(sim::World& world,
                                                 const EvasionPlan* plan) {
  if (!plan) return nullptr;
  return std::make_unique<EvasionChaos>(world, *plan);
}

double effectiveForwardDropProb(const EvasionPlan* plan, double baseDropProb) {
  if (!plan || plan->zero() || !plan->dilute) return baseDropProb;
  const double scaled =
      baseDropProb * (1.0 - plan->budget * plan->forwardRelief);
  return std::max(0.0, scaled);
}

void setPerturbedFrameTap(FrameTap tap) { gTap = std::move(tap); }

}  // namespace kalis::attacks::evasion
