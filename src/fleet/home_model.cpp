#include "fleet/home_model.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace kalis::fleet {

std::string signatureLabel(std::uint8_t id) {
  std::string label = "Signature.";
  label += std::to_string(static_cast<unsigned>(id));
  return label;
}

namespace {

// The home distribution every fleet samples from: light per-home traffic, so
// 100k homes sweep in seconds.
constexpr std::uint8_t kMinDevices = 3;
constexpr std::uint8_t kMaxSampledDevices = 12;  ///< inclusive
constexpr std::uint16_t kMinPacketsPerRound = 8;
constexpr std::uint16_t kMaxPacketsPerRound = 32;  ///< inclusive
constexpr double kAttackedFraction = 0.01;  ///< homes receiving attack traffic
constexpr std::uint16_t kAttackStartRound = 4;   ///< earliest attack onset
constexpr std::uint16_t kAttackStartJitter = 4;  ///< uniform extra rounds
static_assert(kMaxSampledDevices <= kMaxDevices);

std::string homeId(std::uint32_t index) {
  std::string id = "H";
  id += std::to_string(index);
  return id;
}
}  // namespace

HomeProfile sampleHome(std::uint64_t fleetSeed, std::uint32_t homeIndex,
                       std::uint32_t originHome, std::uint8_t signatureId) {
  // One independent splitmix64 stream per home: reseeding from
  // (fleetSeed, homeIndex) makes sampling order-free and reproducible.
  std::uint64_t s = fleetSeed ^ (0x5bf0363546290f31ull * (homeIndex + 1));
  HomeProfile p;
  const std::uint32_t devSpan =
      static_cast<std::uint32_t>(kMaxSampledDevices - kMinDevices) + 1;
  p.devices =
      static_cast<std::uint8_t>(kMinDevices + splitmix64(s) % devSpan);
  const std::uint32_t pktSpan = static_cast<std::uint32_t>(
      kMaxPacketsPerRound - kMinPacketsPerRound) + 1;
  p.packetsPerRound = static_cast<std::uint16_t>(
      kMinPacketsPerRound + splitmix64(s) % pktSpan);
  p.signatureId = signatureId;
  // Uniform draw in [0,1) against the attacked fraction.
  const double u = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  p.attacked = u < kAttackedFraction;
  p.attackStartRound = static_cast<std::uint16_t>(
      kAttackStartRound + splitmix64(s) % (kAttackStartJitter + 1u));
  if (homeIndex == originHome) {
    // The origin must actually see the attack to learn its signature.
    p.attacked = true;
    p.canLearn = true;
    p.attackStartRound = kAttackStartRound;
  }
  return p;
}

HomeNode::HomeNode(std::uint32_t index, HomeProfile profile,
                   std::uint64_t fleetSeed,
                   std::shared_ptr<const ids::BaselineSegment> baseline)
    : profile_(profile),
      rng_(fleetSeed ^ (0x9e6c63d0876a9a67ull * (index + 1))),
      kb_(homeId(index)) {
  if (baseline != nullptr) {
    // Seed the known-signature mask from the shared baseline before
    // attaching it: baseline "Signature.<k>"=true entries are active from
    // round zero.
    for (const auto& [key, k] : baseline->entries()) {
      refreshSignature(k);
    }
    kb_.setBaseline(std::move(baseline));
  }
  kb_.addCollectiveSink(&sink_);
}

void HomeNode::refreshSignature(const ids::Knowgget& k) {
  if (!startsWith(k.label, "Signature.") || k.value != "true") return;
  const auto id = parseInt(k.label.substr(sizeof("Signature.") - 1));
  if (id && *id >= 0 && *id < 64) {
    knownSignatures_ |= 1ull << static_cast<unsigned>(*id);
  }
}

HomeNode::StepStats HomeNode::step(std::uint32_t round, SimTime now,
                                   std::vector<ids::Knowgget>& outPublished) {
  StepStats st;
  deviceCounts_.fill(0);
  const bool underAttack =
      profile_.attacked && round >= profile_.attackStartRound;
  const bool knows = knowsSignature(profile_.signatureId);
  // Attack traffic rides on top of the benign rate: roughly a quarter of the
  // round's packets are malicious once the attack is on.
  const std::uint32_t attackPackets =
      underAttack ? (profile_.packetsPerRound / 4u) + 1u : 0u;
  const std::uint32_t total = profile_.packetsPerRound + attackPackets;
  for (std::uint32_t i = 0; i < total; ++i) {
    const std::uint64_t draw = splitmix64(rng_);
    const auto device = static_cast<std::size_t>(draw % profile_.devices);
    ++deviceCounts_[device];
    const bool malicious = i >= profile_.packetsPerRound;
    if (malicious) {
      ++attackSeen_;
      if (knows) ++st.alerts;
    }
  }
  st.packets = total;
  packetsProcessed_ += total;
  alertsRaised_ += st.alerts;

  // Flood-watchdog stand-in: the busiest device's per-round rate against a
  // fixed multiple of the expected uniform share.
  const std::uint16_t busiest =
      *std::max_element(deviceCounts_.begin(),
                        deviceCounts_.begin() + profile_.devices);
  const std::uint32_t floodBar =
      4u * (total / profile_.devices + 1u);
  if (busiest > floodBar) ++alertsRaised_;

  if (profile_.canLearn && !learned_ && attackSeen_ >= kLearnThreshold) {
    // The anomaly-module stand-in: enough malicious evidence accumulated —
    // activate the signature as *collective* knowledge so the exchange
    // carries it fleet-wide.
    learned_ = true;
    st.learned = true;
    kb_.put(signatureLabel(profile_.signatureId), true, "", true);
    knownSignatures_ |= 1ull << (profile_.signatureId & 63);
  }

  if (!sink_.pending.empty()) {
    for (ids::Knowgget& k : sink_.pending) {
      k.updated = now;
      outPublished.push_back(std::move(k));
    }
    sink_.pending.clear();
  }
  return st;
}

bool HomeNode::applyRemote(const ids::Knowgget& k) {
  const bool accepted = kb_.putRemote(k);
  if (accepted) refreshSignature(k);
  return accepted;
}

std::vector<ids::Knowgget> HomeNode::collectiveView() const {
  std::vector<ids::Knowgget> out;
  for (ids::Knowgget& k : kb_.all()) {
    if (k.collective) out.push_back(std::move(k));
  }
  return out;
}

std::vector<ids::Knowgget> HomeNode::ownCollective() const {
  std::vector<ids::Knowgget> out;
  for (ids::Knowgget& k : kb_.byCreator(kb_.selfId())) {
    if (k.collective) out.push_back(std::move(k));
  }
  return out;
}

std::size_t HomeNode::memoryBytes() const {
  return kb_.memoryBytes() + kb_.selfId().capacity();
}

}  // namespace kalis::fleet
