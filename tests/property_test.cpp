// Randomized property sweeps (seed-parameterized): encode/decode inverses
// across the protocol stack, Knowledge Base key round trips, config
// format/parse idempotence, trace-format round trips under random content,
// event-queue ordering under random scheduling, and link-loss sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "chaos/link_chaos.hpp"
#include "kalis/config.hpp"
#include "kalis/knowledge.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"
#include "support.hpp"
#include "trace/trace_file.hpp"
#include "util/rng.hpp"

namespace kalis {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};

  std::string randomIdent(std::size_t minLen = 1) {
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    std::string out;
    const std::size_t len = minLen + rng.nextBelow(8);
    for (std::size_t i = 0; i < len; ++i) {
      out.push_back(alphabet[rng.pickIndex(sizeof(alphabet) - 1)]);
    }
    return out;
  }
};

// --- protocol round trips under random content -----------------------------------

TEST_P(Seeded, Ieee802154RoundTripRandomPayloads) {
  for (int i = 0; i < 50; ++i) {
    net::Ieee802154Frame frame;
    frame.type = static_cast<net::WpanFrameType>(rng.nextBelow(4));
    frame.securityEnabled = rng.nextBool(0.5);
    frame.ackRequest = rng.nextBool(0.5);
    frame.seq = static_cast<std::uint8_t>(rng.next());
    frame.panId = static_cast<std::uint16_t>(rng.next());
    frame.dst = net::Mac16{static_cast<std::uint16_t>(rng.next())};
    frame.src = net::Mac16{static_cast<std::uint16_t>(rng.next())};
    frame.payload = test::randomBytes(rng, 80);
    const Bytes raw = frame.encode();
    std::optional<net::Ieee802154FrameView> decoded;
    ASSERT_TRUE(net::decodeIeee802154(BytesView(raw), decoded));
    EXPECT_TRUE(net::verifyIeee802154Fcs(BytesView(raw)));
    EXPECT_EQ(decoded->type, frame.type);
    EXPECT_EQ(decoded->seq, frame.seq);
    EXPECT_EQ(decoded->dst, frame.dst);
    EXPECT_EQ(decoded->src, frame.src);
    EXPECT_EQ(toBytes(decoded->payload), frame.payload);
  }
}

TEST_P(Seeded, TcpRoundTripRandomSegments) {
  for (int i = 0; i < 50; ++i) {
    const net::Ipv4Addr src{static_cast<std::uint32_t>(rng.next())};
    const net::Ipv4Addr dst{static_cast<std::uint32_t>(rng.next())};
    net::TcpSegment segment;
    segment.srcPort = static_cast<std::uint16_t>(rng.next());
    segment.dstPort = static_cast<std::uint16_t>(rng.next());
    segment.seq = static_cast<std::uint32_t>(rng.next());
    segment.ackNo = static_cast<std::uint32_t>(rng.next());
    segment.flags = net::TcpFlags::decode(static_cast<std::uint8_t>(rng.next() & 0x1f));
    segment.window = static_cast<std::uint16_t>(rng.next());
    segment.payload = test::randomBytes(rng, 120);
    const Bytes raw = segment.encode(src, dst);
    std::optional<net::TcpSegmentView> decoded;
    ASSERT_TRUE(net::decodeTcp(BytesView(raw), decoded));
    EXPECT_TRUE(net::verifyTcpChecksum(BytesView(raw), src, dst));
    EXPECT_EQ(decoded->seq, segment.seq);
    EXPECT_EQ(decoded->flags.encode(), segment.flags.encode());
    EXPECT_EQ(toBytes(decoded->payload), segment.payload);
  }
}

TEST_P(Seeded, ZigbeeRoundTripRandomFrames) {
  for (int i = 0; i < 50; ++i) {
    net::ZigbeeNwkFrame frame;
    frame.type = static_cast<net::ZigbeeFrameType>(rng.nextBelow(2));
    frame.securityEnabled = rng.nextBool(0.3);
    frame.dst = net::Mac16{static_cast<std::uint16_t>(rng.next())};
    frame.src = net::Mac16{static_cast<std::uint16_t>(rng.next())};
    frame.radius = static_cast<std::uint8_t>(rng.next());
    frame.seq = static_cast<std::uint8_t>(rng.next());
    frame.payload = test::randomBytes(rng, 60);
    const Bytes raw = frame.encode();
    std::optional<net::ZigbeeNwkFrameView> decoded;
    ASSERT_TRUE(net::decodeZigbeeNwk(BytesView(raw), decoded));
    EXPECT_EQ(decoded->type, frame.type);
    EXPECT_EQ(decoded->radius, frame.radius);
    EXPECT_EQ(toBytes(decoded->payload), frame.payload);
  }
}

// --- Knowledge Base properties -----------------------------------------------------

TEST_P(Seeded, KnowggetKeyRoundTrip) {
  for (int i = 0; i < 100; ++i) {
    const std::string creator = "K" + std::to_string(rng.nextBelow(100));
    std::string label = randomIdent();
    if (rng.nextBool(0.4)) label += "." + randomIdent();  // multilevel
    const std::string entity = rng.nextBool(0.5) ? randomIdent() : "";
    const auto parts = ids::decodeKey(ids::encodeKey(creator, label, entity));
    ASSERT_TRUE(parts.has_value());
    EXPECT_EQ(parts->creator, creator);
    EXPECT_EQ(parts->label, label);
    EXPECT_EQ(parts->entity, entity);
  }
}

TEST_P(Seeded, KnowledgeBaseMatchesReferenceMap) {
  ids::KnowledgeBase kb("K1");
  std::map<std::pair<std::string, std::string>, std::string> reference;
  for (int i = 0; i < 300; ++i) {
    const std::string label = "L" + std::to_string(rng.nextBelow(20));
    const std::string entity =
        rng.nextBool(0.5) ? "e" + std::to_string(rng.nextBelow(5)) : "";
    const std::string value = std::to_string(rng.nextBelow(1000));
    kb.put(label, value, entity);
    reference[{label, entity}] = value;
  }
  for (const auto& [key, value] : reference) {
    EXPECT_EQ(kb.local(key.first, key.second), value);
  }
  EXPECT_EQ(kb.size(), reference.size());
}

// --- config format/parse idempotence ------------------------------------------------

TEST_P(Seeded, ConfigFormatParseIdempotent) {
  ids::KalisConfig config;
  const std::size_t moduleCount = 1 + rng.nextBelow(5);
  for (std::size_t m = 0; m < moduleCount; ++m) {
    ids::ModuleSpec spec;
    spec.name = randomIdent(3) + "Module";
    const std::size_t params = rng.nextBelow(3);
    for (std::size_t p = 0; p < params; ++p) {
      spec.params[randomIdent()] = std::to_string(rng.nextBelow(100));
    }
    config.modules.push_back(std::move(spec));
  }
  const std::size_t knowggets = rng.nextBelow(4);
  for (std::size_t k = 0; k < knowggets; ++k) {
    config.knowggets.push_back(ids::StaticKnowgget{
        randomIdent(), rng.nextBool(0.5) ? randomIdent() : "",
        std::to_string(rng.nextBelow(100))});
  }

  const std::string once = ids::formatConfig(config);
  const auto parsed = ids::parseConfig(once);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << once;
  EXPECT_EQ(ids::formatConfig(parsed.config), once);
}

// --- trace format round trips ---------------------------------------------------------

TEST_P(Seeded, TraceRoundTripRandomContents) {
  trace::Trace original;
  const std::size_t count = 1 + rng.nextBelow(40);
  SimTime t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    net::CapturedPacket pkt;
    pkt.medium = static_cast<net::Medium>(rng.nextBelow(3));
    pkt.raw = test::randomBytes(rng, 200);
    t += rng.nextBelow(seconds(1));
    pkt.meta.timestamp = t;
    pkt.meta.rssiDbm = -30.0 - rng.nextDouble() * 60.0;
    pkt.meta.channel = static_cast<int>(rng.nextBelow(26));
    original.push_back(std::move(pkt));
  }
  const Bytes bytes = trace::serializeTrace(original);
  const auto result = trace::readTrace(BytesView(bytes));
  EXPECT_FALSE(result.truncated);
  ASSERT_EQ(result.packets.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.packets[i].raw, original[i].raw);
    EXPECT_EQ(result.packets[i].meta.timestamp, original[i].meta.timestamp);
  }
}

// --- simulator ordering --------------------------------------------------------------

TEST_P(Seeded, EventsAlwaysFireInNondecreasingTimeOrder) {
  sim::Simulator simulator(GetParam());
  std::vector<SimTime> fired;
  for (int i = 0; i < 200; ++i) {
    const SimTime at = rng.nextBelow(seconds(100));
    simulator.at(at, [&fired, &simulator] { fired.push_back(simulator.now()); });
  }
  simulator.runAll();
  EXPECT_EQ(fired.size(), 200u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// --- link loss (chaos::LinkChaos) ------------------------------------------------------

TEST_P(Seeded, LossProbabilityExtremes) {
  sim::Simulator simulator(GetParam());
  sim::World world(simulator);
  const NodeId a = world.addNode("a", sim::NodeRole::kSub, {0, 0});
  const NodeId b = world.addNode("b", sim::NodeRole::kSub, {3, 0});
  world.enableRadio(a, net::Medium::kIeee802154);
  world.enableRadio(b, net::Medium::kIeee802154);
  std::size_t received = 0;
  world.addSniffer(b, net::Medium::kIeee802154,
                   [&](const net::CapturedPacket&, const net::Dissection&) { ++received; });
  chaos::FaultPlan total;
  total.seed = GetParam();
  total.lossStart = 1.0;
  auto lossy = std::make_unique<chaos::LinkChaos>(world, total);
  world.start();
  net::Ieee802154Frame frame;
  frame.src = world.mac16Of(a);
  frame.dst = world.mac16Of(b);
  for (int i = 0; i < 20; ++i) {
    world.send(a, net::Medium::kIeee802154, frame.encode());
  }
  simulator.runUntil(seconds(1));
  EXPECT_EQ(received, 0u);  // total loss
  EXPECT_EQ(lossy->stats().rxDropped, 20u);

  lossy.reset();  // detaches: no loss
  for (int i = 0; i < 20; ++i) {
    world.send(a, net::Medium::kIeee802154, frame.encode());
  }
  simulator.runUntil(seconds(2));
  EXPECT_EQ(received, 20u);  // lossless
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace kalis
