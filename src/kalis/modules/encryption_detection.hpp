// Encryption Detection sensing module.
//
// Fig. 3 includes deployed prevention techniques among the features: if the
// monitored devices encrypt/authenticate their traffic, attacks like data
// alteration are impossible and the corresponding detection technique can be
// deactivated. Evidence used:
//  - the 802.15.4 link-security bit and ZigBee NWK security bit,
//  - the 802.11 "protected" bit,
//  - payload byte-entropy (TLS-like payloads exceed ~7.2 bits/byte).
//
// Publishes LinkEncryption.<medium> = true and Encrypted@<entity> = true.
#pragma once

#include <map>
#include <string>
#include <unordered_set>

#include "kalis/module.hpp"

namespace kalis::ids {

class EncryptionDetectionModule final : public SensingModule {
 public:
  std::string name() const override { return "EncryptionDetectionModule"; }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;

  std::size_t memoryBytes() const override {
    return sizeof(*this) +
           encrypted_.size() * (sizeof(net::EntityRef) + 16);
  }

 private:
  double entropyThreshold_ = 7.2;
  std::size_t minPayload_ = 64;
  std::unordered_set<net::EntityRef> encrypted_;  ///< Encrypted@ published
  bool wpanPublished_ = false;
  bool wifiPublished_ = false;
};

}  // namespace kalis::ids
