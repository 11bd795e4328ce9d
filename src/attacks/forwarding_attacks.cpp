#include "attacks/forwarding_attacks.hpp"

#include "net/ieee802154.hpp"

namespace kalis::attacks {

bool SelectiveForwardPolicy::shouldForward(sim::NodeHandle& node,
                                           const net::CtpDataView& data) {
  (void)data;
  if (!node.rng().nextBool(dropProb_)) return true;
  ++drops_;
  if (truth_ && truth_->size() < maxInstances_) {
    truth_->add(node.now(), truthType_, net::toString(data.origin),
                net::toString(node.mac16()));
  }
  return false;
}

bool WormholeRelayPolicy::shouldRelay(sim::NodeHandle& node,
                                      const net::ZigbeeNwkFrameView& nwk) {
  ++tunneled_;
  if (config_.truth && config_.truth->size() < config_.maxInstances) {
    // Alternate the recorded suspect between the two colluders so the
    // countermeasure assessment counts both as attackers.
    const std::string suspect =
        (tunneled_ % 2 == 0) && config_.world
            ? net::toString(config_.world->mac16Of(config_.peer))
            : net::toString(node.mac16());
    config_.truth->add(node.now(), ids::AttackType::kWormhole,
                       net::toString(nwk.dst), suspect);
  }
  if (config_.world && config_.peer != kInvalidNode) {
    // Tunnel out-of-band: the peer re-transmits the NWK frame unchanged
    // under its own link identity after the tunnel latency.
    sim::World& world = *config_.world;
    const NodeId peer = config_.peer;
    net::ZigbeeNwkFrame copy = net::toOwned(nwk);
    const std::uint8_t seq = linkSeq_++;
    world.sim().schedule(config_.tunnelLatency, [&world, peer, copy, seq] {
      net::Ieee802154Frame frame;
      frame.type = net::WpanFrameType::kData;
      frame.seq = seq;
      frame.panId = 0x1aabu;
      frame.dst = copy.dst;  // deliver straight to the NWK destination
      frame.src = world.mac16Of(peer);
      frame.payload = copy.encode();
      world.send(peer, net::Medium::kIeee802154, frame.encode());
    });
  }
  return false;  // B1 never relays normally: the blackhole half-symptom
}

}  // namespace kalis::attacks
