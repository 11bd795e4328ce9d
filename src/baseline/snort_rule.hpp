// A Snort-style rule language: the signature baseline the paper compares
// against ("we also compare Kalis with Snort, using custom rules along with
// the default community ruleset", §VI-B).
//
// Supported grammar (one rule per line, '#' comments):
//
//   alert <proto> <srcAddr> <srcPort> -> <dstAddr> <dstPort> ( options )
//
//   proto    := tcp | udp | icmp | ip
//   addr     := any | a.b.c.d | a.b.c.d/nn
//   port     := any | N | N:M
//   options  := key[:value] separated by ';'
//     msg:"text"              human-readable alert text
//     content:"text"          substring match on the application payload
//     content:|aa bb cc|      hex-bytes match
//     itype:N / icode:N       ICMP type/code
//     flags:S|SA|A|R|F        TCP flag combination (exact set)
//     dsize:>N / <N / N       payload size predicate
//     threshold: type both, track <by_src|by_dst>, count N, seconds S
//     sid:N                   rule id
//     classtype:name          classification (mapped to an AttackType)
//
// The classtype-to-attack mapping mirrors how Snort alert classes would be
// interpreted by an operator; it is what the evaluation scores against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kalis/alert.hpp"
#include "util/bytes.hpp"

namespace kalis::baseline {

enum class RuleProto : std::uint8_t { kIp, kTcp, kUdp, kIcmp };

struct AddrSpec {
  bool any = true;
  std::uint32_t addr = 0;   ///< network byte-order-free host value
  std::uint32_t mask = 0xffffffffu;

  bool matches(std::uint32_t value) const {
    return any || ((value & mask) == (addr & mask));
  }
};

struct PortSpec {
  bool any = true;
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;

  bool matches(std::uint16_t value) const {
    return any || (value >= lo && value <= hi);
  }
};

struct DsizeSpec {
  enum class Op { kEq, kGt, kLt } op = Op::kEq;
  std::size_t value = 0;

  bool matches(std::size_t size) const {
    switch (op) {
      case Op::kEq: return size == value;
      case Op::kGt: return size > value;
      case Op::kLt: return size < value;
    }
    return false;
  }
};

struct ThresholdSpec {
  enum class Track { kBySrc, kByDst } track = Track::kByDst;
  std::size_t count = 1;
  Duration window = seconds(1);  ///< the rule's "seconds S"
};

struct TcpFlagsSpec {
  bool syn = false, ack = false, fin = false, rst = false, psh = false;
};

struct SnortRule {
  RuleProto proto = RuleProto::kIp;
  AddrSpec src;
  PortSpec srcPort;
  AddrSpec dst;
  PortSpec dstPort;

  std::string msg;
  std::uint32_t sid = 0;
  std::string classtype;
  std::vector<Bytes> contents;          ///< all must match the payload
  std::optional<int> itype;
  std::optional<int> icode;
  std::optional<TcpFlagsSpec> flags;
  std::optional<DsizeSpec> dsize;
  std::optional<ThresholdSpec> threshold;

  /// AttackType this rule's classtype denotes (for evaluation scoring).
  ids::AttackType attackType() const;
};

struct RuleParseResult {
  std::vector<SnortRule> rules;
  std::vector<std::string> errors;  ///< "line N: message" per bad rule
};

RuleParseResult parseRules(std::string_view text);

/// The bundled ruleset: custom IoT rules plus a community-style body of
/// generic signatures (which is what makes Snort heavy per packet).
std::string communityRuleset();

}  // namespace kalis::baseline
