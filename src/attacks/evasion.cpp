#include "attacks/evasion.hpp"

#include <algorithm>
#include <utility>

#include "net/codec.hpp"
#include "net/packet.hpp"
#include "util/checksum.hpp"
#include "util/strings.hpp"

namespace kalis::attacks::evasion {

namespace {

FrameTap gTap;

// Technique scales: the value each technique reaches at budget 1.
/// Mean extra inter-packet gap (exponential draw), milliseconds.
constexpr double kGapStretchMs = 400.0;
/// Uniform per-frame timing jitter bound, milliseconds.
constexpr double kJitterMs = 50.0;
/// Probability that an attack frame is silently not sent.
constexpr double kDiluteMax = 0.8;
/// Spoofed link-source pool size.
constexpr int kSplitSources = 8;
/// Maximum mimicry padding per frame, bytes (IP trailer slack).
constexpr int kPadMax = 48;
/// Forwarding-family relief: selective-forwarding/blackhole drop probability
/// is scaled by (1 - budget * kForwardRelief), sinking the watchdog's
/// observed drop ratio below its alerting threshold.
constexpr double kForwardRelief = 0.9;

std::size_t mediumIndex(net::Medium m) { return static_cast<std::size_t>(m); }

}  // namespace

std::string EvasionPlan::describe() const {
  std::string out;
  if (budget > 0.0) out = "budget=" + formatDouble(budget) + ",";
  return out + "seed=" + std::to_string(seed);
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
  const double dropProb = budget * kDiluteMax;
  if (dropProb > 0.0 && rng_.nextBool(dropProb)) {
    fault.drop = true;
    ++stats_.diluted;
    return fault;
  }

  // 2. Timing: exponential gap stretching plus uniform jitter along a
  //    per-(node, medium) monotone cursor — bursts spread out below the
  //    flood modules' rate thresholds without reordering.
  const double gapMeanUs = budget * kGapStretchMs * 1000.0;
  const double jitterUs = budget * kJitterMs * 1000.0;
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

  // 3 + 4. Frame rewriting: symptom splitting (spoofed link source) and
  //        mimicry padding, applied to the same wire bytes.
  Bytes mutated;
  bool changed = false;
  const auto pool = 1 + static_cast<std::uint64_t>(budget * kSplitSources);
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
  const auto padBudget = static_cast<std::uint64_t>(budget * kPadMax);
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
  if (!plan || plan->zero()) return baseDropProb;
  const double scaled = baseDropProb * (1.0 - plan->budget * kForwardRelief);
  return std::max(0.0, scaled);
}

void setPerturbedFrameTap(FrameTap tap) { gTap = std::move(tap); }

}  // namespace kalis::attacks::evasion
