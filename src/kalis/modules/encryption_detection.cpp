#include "kalis/modules/encryption_detection.hpp"

#include "util/stats.hpp"

namespace kalis::ids {

void EncryptionDetectionModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("entropyThreshold"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) entropyThreshold_ = *v;
  }
  if (auto it = params.find("minPayload"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minPayload_ = static_cast<std::size_t>(*v);
    }
  }
}

void EncryptionDetectionModule::onPacket(const net::CapturedPacket& pkt,
                                         const net::Dissection& dis,
                                         ModuleContext& ctx) {
  bool linkSecured = false;
  if (dis.wpan &&
      (dis.wpan->securityEnabled || (dis.zigbee && dis.zigbee->securityEnabled))) {
    linkSecured = true;
    if (!wpanPublished_) {
      wpanPublished_ = true;
      ctx.kb.put(std::string(labels::kLinkEncryption) + ".P802154", true);
    }
  }
  if (dis.wifi && dis.wifi->protectedFrame) {
    linkSecured = true;
    if (!wifiPublished_) {
      wifiPublished_ = true;
      ctx.kb.put(std::string(labels::kLinkEncryption) + ".WiFi", true);
    }
  }

  bool payloadOpaque = false;
  if (dis.appPayload.size() >= minPayload_ &&
      byteEntropy(BytesView(dis.appPayload)) >= entropyThreshold_) {
    payloadOpaque = true;
  }

  if (linkSecured || payloadOpaque) {
    const net::EntityRef entity = dis.linkSourceRef();
    if (entity.valid() && encrypted_.insert(entity).second) {
      ctx.kb.put("Encrypted", true, entity.toString());
    }
  }
  (void)pkt;
}

}  // namespace kalis::ids
