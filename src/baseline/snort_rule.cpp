#include "baseline/snort_rule.hpp"

#include <sstream>

#include "net/addr.hpp"
#include "util/strings.hpp"

namespace kalis::baseline {

ids::AttackType SnortRule::attackType() const {
  if (classtype == "icmp-flood") return ids::AttackType::kIcmpFlood;
  if (classtype == "smurf") return ids::AttackType::kSmurf;
  if (classtype == "syn-flood") return ids::AttackType::kSynFlood;
  if (classtype == "attempted-dos") return ids::AttackType::kIcmpFlood;
  return ids::AttackType::kUnknownAnomaly;
}

namespace {

std::optional<AddrSpec> parseAddr(std::string_view token) {
  AddrSpec spec;
  if (iequals(token, "any")) return spec;
  spec.any = false;
  std::string_view addrPart = token;
  std::uint32_t maskBits = 32;
  const std::size_t slash = token.find('/');
  if (slash != std::string_view::npos) {
    addrPart = token.substr(0, slash);
    auto bits = parseInt(token.substr(slash + 1));
    if (!bits || *bits < 0 || *bits > 32) return std::nullopt;
    maskBits = static_cast<std::uint32_t>(*bits);
  }
  auto addr = net::parseIpv4(addrPart);
  if (!addr) return std::nullopt;
  spec.addr = addr->value;
  spec.mask = maskBits == 0 ? 0 : (0xffffffffu << (32 - maskBits));
  return spec;
}

std::optional<PortSpec> parsePort(std::string_view token) {
  PortSpec spec;
  if (iequals(token, "any")) return spec;
  spec.any = false;
  const std::size_t colon = token.find(':');
  if (colon == std::string_view::npos) {
    auto port = parseInt(token);
    if (!port || *port < 0 || *port > 65535) return std::nullopt;
    spec.lo = spec.hi = static_cast<std::uint16_t>(*port);
    return spec;
  }
  auto lo = parseInt(token.substr(0, colon));
  auto hi = parseInt(token.substr(colon + 1));
  if (!lo || !hi || *lo < 0 || *hi > 65535 || *lo > *hi) return std::nullopt;
  spec.lo = static_cast<std::uint16_t>(*lo);
  spec.hi = static_cast<std::uint16_t>(*hi);
  return spec;
}

std::optional<Bytes> parseContent(std::string_view value) {
  value = trim(value);
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    return bytesOf(value.substr(1, value.size() - 2));
  }
  if (value.size() >= 2 && value.front() == '|' && value.back() == '|') {
    Bytes out;
    for (const std::string& byteStr :
         split(value.substr(1, value.size() - 2), ' ')) {
      if (byteStr.empty()) continue;
      auto bytes = fromHex(byteStr);
      if (!bytes || bytes->size() != 1) return std::nullopt;
      out.push_back((*bytes)[0]);
    }
    return out;
  }
  return std::nullopt;
}

std::optional<ThresholdSpec> parseThreshold(std::string_view value) {
  ThresholdSpec spec;
  for (const std::string& part : split(value, ',')) {
    const auto kv = split(std::string(trim(part)), ' ');
    if (kv.size() < 2) continue;
    if (kv[0] == "track") {
      if (kv[1] == "by_src") spec.track = ThresholdSpec::Track::kBySrc;
      else if (kv[1] == "by_dst") spec.track = ThresholdSpec::Track::kByDst;
      else return std::nullopt;
    } else if (kv[0] == "count") {
      auto n = parseInt(kv[1]);
      if (!n || *n <= 0) return std::nullopt;
      spec.count = static_cast<std::size_t>(*n);
    } else if (kv[0] == "seconds") {
      const auto s = parseDouble(kv[1]);
      const auto window =
          s && *s > 0 ? toDuration(*s, seconds(1)) : std::nullopt;
      if (!window) return std::nullopt;
      spec.window = *window;
    } else if (kv[0] == "type") {
      // "type both|limit|threshold": tracked identically here.
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

std::optional<TcpFlagsSpec> parseFlags(std::string_view value) {
  TcpFlagsSpec spec;
  for (char c : trim(value)) {
    switch (c) {
      case 'S': spec.syn = true; break;
      case 'A': spec.ack = true; break;
      case 'F': spec.fin = true; break;
      case 'R': spec.rst = true; break;
      case 'P': spec.psh = true; break;
      default: return std::nullopt;
    }
  }
  return spec;
}

std::optional<DsizeSpec> parseDsize(std::string_view value) {
  DsizeSpec spec;
  value = trim(value);
  if (value.empty()) return std::nullopt;
  if (value.front() == '>') {
    spec.op = DsizeSpec::Op::kGt;
    value.remove_prefix(1);
  } else if (value.front() == '<') {
    spec.op = DsizeSpec::Op::kLt;
    value.remove_prefix(1);
  }
  auto n = parseInt(value);
  if (!n || *n < 0) return std::nullopt;
  spec.value = static_cast<std::size_t>(*n);
  return spec;
}

/// Splits the options body on ';' but not inside quotes or |hex| blocks.
std::vector<std::string> splitOptions(std::string_view body) {
  std::vector<std::string> out;
  std::string current;
  bool inQuotes = false;
  bool inHex = false;
  for (char c : body) {
    if (c == '"' && !inHex) inQuotes = !inQuotes;
    if (c == '|' && !inQuotes) inHex = !inHex;
    if (c == ';' && !inQuotes && !inHex) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!trim(current).empty()) out.push_back(current);
  return out;
}

std::optional<std::string> applyOption(SnortRule& rule, std::string_view opt) {
  opt = trim(opt);
  if (opt.empty()) return std::nullopt;
  const std::size_t colon = opt.find(':');
  const std::string key =
      std::string(trim(colon == std::string_view::npos ? opt : opt.substr(0, colon)));
  const std::string_view value =
      colon == std::string_view::npos ? std::string_view() : trim(opt.substr(colon + 1));

  if (key == "msg") {
    std::string v(value);
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
      rule.msg = v.substr(1, v.size() - 2);
      return std::nullopt;
    }
    return "msg must be quoted";
  }
  if (key == "content") {
    auto content = parseContent(value);
    if (!content) return "bad content";
    rule.contents.push_back(std::move(*content));
    return std::nullopt;
  }
  if (key == "itype") {
    auto n = parseInt(value);
    if (!n) return "bad itype";
    rule.itype = static_cast<int>(*n);
    return std::nullopt;
  }
  if (key == "icode") {
    auto n = parseInt(value);
    if (!n) return "bad icode";
    rule.icode = static_cast<int>(*n);
    return std::nullopt;
  }
  if (key == "flags") {
    auto flags = parseFlags(value);
    if (!flags) return "bad flags";
    rule.flags = *flags;
    return std::nullopt;
  }
  if (key == "dsize") {
    auto d = parseDsize(value);
    if (!d) return "bad dsize";
    rule.dsize = *d;
    return std::nullopt;
  }
  if (key == "threshold") {
    auto t = parseThreshold(value);
    if (!t) return "bad threshold";
    rule.threshold = *t;
    return std::nullopt;
  }
  if (key == "sid") {
    auto n = parseInt(value);
    if (!n) return "bad sid";
    rule.sid = static_cast<std::uint32_t>(*n);
    return std::nullopt;
  }
  if (key == "classtype") {
    rule.classtype = std::string(value);
    return std::nullopt;
  }
  if (key == "rev" || key == "reference" || key == "priority" ||
      key == "nocase") {
    return std::nullopt;  // accepted, no effect
  }
  return "unknown option '" + key + "'";
}

}  // namespace

RuleParseResult parseRules(std::string_view text) {
  RuleParseResult result;
  int lineNo = 0;
  for (const std::string& rawLine : split(text, '\n')) {
    ++lineNo;
    const std::string_view line = trim(rawLine);
    if (line.empty() || line.front() == '#') continue;

    auto fail = [&](const std::string& message) {
      result.errors.push_back("line " + std::to_string(lineNo) + ": " + message);
    };

    const std::size_t lparen = line.find('(');
    const std::size_t rparen = line.rfind(')');
    if (lparen == std::string_view::npos || rparen == std::string_view::npos ||
        rparen < lparen) {
      fail("missing options block");
      continue;
    }
    std::vector<std::string> head;
    for (const std::string& tok : split(trim(line.substr(0, lparen)), ' ')) {
      if (!tok.empty()) head.push_back(tok);
    }
    if (head.size() != 7 || head[0] != "alert" || head[4] != "->") {
      fail("expected 'alert <proto> <src> <sport> -> <dst> <dport>'");
      continue;
    }

    SnortRule rule;
    if (iequals(head[1], "tcp")) rule.proto = RuleProto::kTcp;
    else if (iequals(head[1], "udp")) rule.proto = RuleProto::kUdp;
    else if (iequals(head[1], "icmp")) rule.proto = RuleProto::kIcmp;
    else if (iequals(head[1], "ip")) rule.proto = RuleProto::kIp;
    else {
      fail("unknown protocol '" + head[1] + "'");
      continue;
    }

    auto src = parseAddr(head[2]);
    auto srcPort = parsePort(head[3]);
    auto dst = parseAddr(head[5]);
    auto dstPort = parsePort(head[6]);
    if (!src || !srcPort || !dst || !dstPort) {
      fail("bad address/port");
      continue;
    }
    rule.src = *src;
    rule.srcPort = *srcPort;
    rule.dst = *dst;
    rule.dstPort = *dstPort;

    bool ok = true;
    for (const std::string& opt :
         splitOptions(line.substr(lparen + 1, rparen - lparen - 1))) {
      if (auto error = applyOption(rule, opt)) {
        fail(*error);
        ok = false;
        break;
      }
    }
    if (ok) result.rules.push_back(std::move(rule));
  }
  return result;
}

std::string communityRuleset() {
  std::ostringstream oss;
  oss << "# Custom IoT rules (paper: \"custom rules along with the default\n"
         "# community ruleset\"). Note both DoS signatures key on the same\n"
         "# observable - an echo-reply storm - which is why Snort cannot\n"
         "# distinguish ICMP flood from Smurf.\n";
  oss << "alert icmp any any -> any any (msg:\"ICMP echo reply flood\"; "
         "itype:0; threshold: type both, track by_dst, count 40, seconds 5; "
         "sid:1000001; classtype:icmp-flood;)\n";
  oss << "alert icmp any any -> any any (msg:\"Possible smurf amplification\"; "
         "itype:0; threshold: type both, track by_dst, count 40, seconds 5; "
         "sid:1000002; classtype:smurf;)\n";
  oss << "alert tcp any any -> any any (msg:\"TCP SYN flood\"; flags:S; "
         "threshold: type both, track by_dst, count 60, seconds 5; "
         "sid:1000003; classtype:syn-flood;)\n";
  oss << "alert icmp any any -> any any (msg:\"ICMP ping sweep\"; itype:8; "
         "threshold: type both, track by_src, count 50, seconds 5; "
         "sid:1000004; classtype:attempted-recon;)\n";
  // A community-ruleset body: generic content signatures. Each costs a
  // payload scan per packet; in aggregate they are Snort's per-packet cost.
  static const char* kPatterns[] = {
      "cmd.exe", "/etc/passwd", "../..", "<script>", "SELECT ", "UNION ",
      "xp_cmdshell", "wget http", "curl http", "powershell", "/bin/sh",
      "eval(", "base64_decode", "name=admin", "login.php", "shell_exec",
      "%00%00", "AAAAAAAAAAAAAAAA", "0x90909090", "默认密码", "passwd=",
      "GET /admin", "PUT /", "TRACE /", "OPTIONS * HTTP", "User-Agent: sqlmap",
      "nmap", "masscan", "zmap scan", "Mirai", "botnet", "gafgyt",
  };
  int sid = 2000001;
  for (const char* pattern : kPatterns) {
    for (int variant = 0; variant < 3; ++variant) {
      oss << "alert tcp any any -> any any (msg:\"community signature " << sid
          << "\"; content:\"" << pattern << "\";";
      if (variant == 1) oss << " dsize:>64;";
      if (variant == 2) oss << " flags:PA;";
      oss << " sid:" << sid++ << "; classtype:misc-activity;)\n";
    }
  }
  return oss.str();
}

}  // namespace kalis::baseline
