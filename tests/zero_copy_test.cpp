// Unit tests for the zero-copy packet memory model primitives
// (DESIGN.md §10): PacketView pull/trim cursors, EntityRef identity/format
// parity, the EntityKeyedMap label-order iteration contract the golden SIEM
// streams depend on, and the subscription-backed KnowggetEntityCache.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "kalis/entity_map.hpp"
#include "net/entity_ref.hpp"
#include "net/packet_view.hpp"

namespace kalis::net {
namespace {

// --- PacketView --------------------------------------------------------------

TEST(PacketView, PullAndTrimDiscipline) {
  const Bytes frame = {1, 2, 3, 4, 5, 6, 7, 8};
  PacketView view{BytesView(frame)};
  EXPECT_EQ(view.remaining(), 8u);
  EXPECT_EQ(view.peek(), 1);
  ASSERT_TRUE(view.pull(2));
  EXPECT_EQ(view.offset(), 2u);
  ASSERT_TRUE(view.trimEnd(2));  // drop the "FCS"
  EXPECT_EQ(view.remaining(), 4u);
  EXPECT_EQ(view.data().front(), 3);
  EXPECT_EQ(view.data().back(), 6);
  // Views alias the frame, no copies.
  EXPECT_EQ(view.data().data(), frame.data() + 2);
  EXPECT_EQ(view.pullByte(), 3);
  // Over-pulls fail and leave the cursor untouched.
  EXPECT_FALSE(view.pull(10));
  EXPECT_EQ(view.remaining(), 3u);
  EXPECT_FALSE(view.trimEnd(10));
}

TEST(PacketView, EmptyFrame) {
  PacketView view{BytesView{}};
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.peek(), std::nullopt);
  EXPECT_EQ(view.pullByte(), std::nullopt);
  EXPECT_TRUE(view.pull(0));
  EXPECT_FALSE(view.pull(1));
}

// --- EntityRef ---------------------------------------------------------------

TEST(EntityRef, StringFormatParity) {
  EXPECT_EQ(EntityRef::none().toString(), "?");
  EXPECT_EQ(EntityRef::broadcastLabel().toString(), "broadcast");
  EXPECT_EQ(EntityRef::of(Mac16{0x0003}).toString(), "0x0003");
  EXPECT_EQ(EntityRef::of(Mac48{{0x02, 0x4b, 0x41, 0x00, 0x12, 0xfe}}).toString(),
            "02:4b:41:00:12:fe");
  EXPECT_EQ(EntityRef::of(Ipv4Addr{0x0a000207}).toString(), "10.0.2.7");
  const Ipv6Addr v6 = Ipv6Addr::linkLocalFromShort(Mac16{0x0042});
  EXPECT_EQ(EntityRef::of(v6).toString(), toString(v6));
}

TEST(EntityRef, RoundTripsAddresses) {
  EXPECT_EQ(EntityRef::of(Mac16{0xbeef}).asMac16(), Mac16{0xbeef});
  const Mac48 mac{{1, 2, 3, 4, 5, 6}};
  EXPECT_EQ(EntityRef::of(mac).asMac48(), mac);
  EXPECT_EQ(EntityRef::of(Ipv4Addr{0x7f000001}).asIpv4(), Ipv4Addr{0x7f000001});
}

TEST(EntityRef, IdentityAndHashing) {
  const EntityRef a = EntityRef::of(Mac16{0x0003});
  const EntityRef b = EntityRef::of(Mac16{0x0003});
  const EntityRef c = EntityRef::of(Mac16{0x0004});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  // Same bytes under a different kind are a different identity.
  EXPECT_NE(EntityRef::of(Mac16{0x0a00}).key(),
            EntityRef::of(Ipv4Addr{0x0a000000}).key());
  EXPECT_FALSE(EntityRef::none().valid());
  EXPECT_TRUE(EntityRef::broadcastLabel().valid());
  std::set<EntityRef> uniq{a, b, c};
  EXPECT_EQ(uniq.size(), 2u);
}

// --- EntityKeyedMap ----------------------------------------------------------

TEST(EntityKeyedMap, OrderedIterationMatchesLegacyStringMap) {
  ids::EntityKeyedMap<int> byEntity;
  std::map<std::string, int> legacy;
  const EntityRef refs[] = {
      EntityRef::of(Mac16{0x00ff}), EntityRef::of(Mac16{0x0001}),
      EntityRef::of(Ipv4Addr{0x0a000007}), EntityRef::of(Mac48{{2, 0, 0, 0, 0, 9}}),
      EntityRef::broadcastLabel()};
  int v = 0;
  for (const EntityRef& r : refs) {
    byEntity.tryEmplace(r, v);
    legacy.emplace(r.toString(), v);
    ++v;
  }
  // Re-inserting does not duplicate or reorder.
  auto [entry, inserted] = byEntity.tryEmplace(refs[0], 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(entry->value, 0);

  std::vector<std::string> order;
  byEntity.forEachOrdered(
      [&](ids::EntityKeyedMap<int>::Entry& e) { order.push_back(e.label); });
  std::vector<std::string> expected;
  for (const auto& [label, unused] : legacy) expected.push_back(label);
  EXPECT_EQ(order, expected);

  EXPECT_EQ(byEntity.findByLabel("0x0001")->value, 1);
  EXPECT_EQ(byEntity.find(refs[2])->value, 2);
  EXPECT_EQ(byEntity.findByLabel("nope"), nullptr);
}

TEST(EntityKeyedMap, TryEmplaceConstructsValueOnlyOnMiss) {
  // A value that counts its constructions (by any constructor).
  struct Counted {
    explicit Counted(int* n) : constructions(n) { ++*constructions; }
    Counted(const Counted& o) : constructions(o.constructions) {
      ++*constructions;
    }
    Counted(Counted&& o) noexcept : constructions(o.constructions) {
      ++*constructions;
    }
    int* constructions;
  };
  int constructions = 0;
  ids::EntityKeyedMap<Counted> map;
  const EntityRef key = EntityRef::of(Mac16{0x0007});
  auto [entry, inserted] = map.tryEmplace(key, &constructions);
  ASSERT_TRUE(inserted);
  const int afterInsert = constructions;
  EXPECT_GE(afterInsert, 1);
  for (int i = 0; i < 10; ++i) {
    auto [hit, again] = map.tryEmplace(key, &constructions);
    EXPECT_FALSE(again);
    EXPECT_EQ(hit, entry);
  }
  EXPECT_EQ(constructions, afterInsert);  // hits construct nothing
}

TEST(EntityRef, FromLabelInvertsToString) {
  const EntityRef refs[] = {
      EntityRef::none(), EntityRef::broadcastLabel(),
      EntityRef::of(Mac16{0x00ab}), EntityRef::of(Mac48{{2, 0x4b, 0, 0, 0, 9}}),
      EntityRef::of(Ipv4Addr{0x0a000207}),
      EntityRef::of(Ipv6Addr::linkLocalFromShort(Mac16{0x0042}))};
  for (const EntityRef& r : refs) {
    EXPECT_EQ(EntityRef::fromLabel(r.toString()), r) << r.toString();
  }
  // Spellings toString() never produces name no entity.
  for (const char* label : {"", "0xab", "00ab", "0X00AB", "10.0.2.07",
                            "02:4B:00:00:00:09", "thermostat"}) {
    EXPECT_EQ(EntityRef::fromLabel(label), std::nullopt) << label;
  }
}

TEST(KnowggetEntityCache, FollowsLocalPutsAfterBinding) {
  ids::KnowledgeBase kb("K1");  // outlives the cache's subscription
  ids::KnowggetEntityCache root(ids::labels::kCtpRoot);
  EXPECT_EQ(root.in(kb).value(), "");
  EXPECT_EQ(root.in(kb).entity(), std::nullopt);
  kb.put(ids::labels::kCtpRoot, "0x0001");
  EXPECT_EQ(root.in(kb).entity(), EntityRef::of(Mac16{0x0001}));
  // A peer's CtpRoot and an entity-qualified one are not the local value.
  ids::Knowgget peer;
  peer.label = ids::labels::kCtpRoot;
  peer.value = "0x0009";
  peer.creator = "K2";
  ASSERT_TRUE(kb.putRemote(peer));
  kb.put(ids::labels::kCtpRoot, "0x0005", "0x0002");
  EXPECT_EQ(root.in(kb).value(), "0x0001");
  kb.put(ids::labels::kCtpRoot, "sink");  // set, but names no entity
  EXPECT_EQ(root.in(kb).value(), "sink");
  EXPECT_EQ(root.in(kb).entity(), std::nullopt);
}

TEST(EntityKeyedMap, DominantEntityTieBreaksOnLabel) {
  std::map<EntityRef, std::size_t> counts;
  counts[EntityRef::of(Mac16{0x0009})] = 3;
  counts[EntityRef::of(Mac16{0x0002})] = 3;  // tie: smaller label wins
  counts[EntityRef::of(Mac16{0x0001})] = 1;
  EXPECT_EQ(ids::dominantEntity(counts).toString(), "0x0002");
  counts[EntityRef::of(Mac16{0x0009})] = 4;  // strict max wins over label
  EXPECT_EQ(ids::dominantEntity(counts).toString(), "0x0009");

  const std::set<EntityRef> entities{EntityRef::of(Mac16{0x0004}),
                                     EntityRef::of(Mac16{0x0001})};
  const std::vector<std::string> labels = ids::sortedLabels(entities);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], "0x0001");
  EXPECT_EQ(labels[1], "0x0004");
}

}  // namespace
}  // namespace kalis::net
