// Knowledge Base tests: the Fig. 5b key encoding, typed reads, query styles
// (exact / by-label / by-entity / multilevel prefix / by-creator), the
// publish/subscribe change notifications, and the collective-knowledge
// one-way update rules of §IV-B3.
#include <gtest/gtest.h>

#include "kalis/knowledge.hpp"

namespace kalis::ids {
namespace {

TEST(KnowggetKey, EncodeMatchesPaperFigure5b) {
  EXPECT_EQ(encodeKey("K1", "Multihop", ""), "K1$Multihop");
  EXPECT_EQ(encodeKey("K1", "SignalStrength", "SensorA"),
            "K1$SignalStrength@SensorA");
  EXPECT_EQ(encodeKey("K1", "TrafficFrequency.TCPSYN", ""),
            "K1$TrafficFrequency.TCPSYN");
}

TEST(KnowggetKey, DecodeRoundTrip) {
  auto parts = decodeKey("K2$SignalStrength@SensorA");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->creator, "K2");
  EXPECT_EQ(parts->label, "SignalStrength");
  EXPECT_EQ(parts->entity, "SensorA");

  parts = decodeKey("K1$Multihop");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->entity, "");
  EXPECT_EQ(decodeKey("no-dollar-here"), std::nullopt);
}

TEST(KnowledgeBase, PutAndTypedReads) {
  KnowledgeBase kb("K1");
  kb.put("Multihop", true);
  kb.put("MonitoredNodes", 8);
  kb.put("TrafficFrequency.TCPSYN", 0.037);
  kb.put("SignalStrength", -67, "SensorA");

  EXPECT_EQ(kb.local<bool>("Multihop"), true);
  EXPECT_EQ(kb.local<long long>("MonitoredNodes"), 8);
  EXPECT_DOUBLE_EQ(*kb.local<double>("TrafficFrequency.TCPSYN"), 0.037);
  EXPECT_EQ(kb.local<long long>("SignalStrength", "SensorA"), -67);
  EXPECT_EQ(kb.local("Missing"), std::nullopt);
  // Raw access by full key, exactly as the implementation section describes.
  EXPECT_EQ(kb.raw("K1$Multihop"), "true");
  EXPECT_EQ(kb.raw("K1$SignalStrength@SensorA"), "-67");
}

TEST(KnowledgeBase, NonFiniteDoubleReadsAsAbsent) {
  KnowledgeBase kb("K1");
  for (const char* value : {"nan", "inf", "1e400"}) {
    kb.put("Share", value);
    EXPECT_EQ(kb.local<double>("Share"), std::nullopt) << value;
  }
}

TEST(KnowledgeBase, TypeMismatchYieldsNullopt) {
  KnowledgeBase kb("K1");
  kb.put("Multihop", "maybe");
  EXPECT_EQ(kb.local<bool>("Multihop"), std::nullopt);
  EXPECT_EQ(kb.local<long long>("Multihop"), std::nullopt);
}

TEST(KnowledgeBase, ByLabelSpansCreatorsAndEntities) {
  KnowledgeBase kb("K1");
  kb.put("SignalStrength", -67, "SensorA");
  Knowgget remote;
  remote.creator = "K2";
  remote.label = "SignalStrength";
  remote.entity = "SensorA";
  remote.value = "-84";
  ASSERT_TRUE(kb.putRemote(remote));

  const auto hits = kb.byLabel("SignalStrength");
  EXPECT_EQ(hits.size(), 2u);
  const auto byEntity = kb.byEntity("SensorA");
  EXPECT_EQ(byEntity.size(), 2u);
  EXPECT_EQ(kb.byCreator("K2").size(), 1u);
}

TEST(KnowledgeBase, MultilevelPrefixQuery) {
  KnowledgeBase kb("K1");
  kb.put("TrafficFrequency.TCPSYN", 0.037);
  kb.put("TrafficFrequency.TCPACK", 0.090);
  kb.put("TrafficFrequencyOther", 1.0);  // must NOT match
  const auto subtree = kb.byLabelPrefix("TrafficFrequency");
  EXPECT_EQ(subtree.size(), 2u);
}

TEST(KnowledgeBase, SubscriptionFiresOnChangeOnly) {
  KnowledgeBase kb("K1");
  int calls = 0;
  kb.subscribe("Multihop", [&](const Knowgget&) { ++calls; });
  kb.put("Multihop", true);
  kb.put("Multihop", true);  // unchanged: no notification
  kb.put("Multihop", false);
  EXPECT_EQ(calls, 2);
}

TEST(KnowledgeBase, WildcardSubscription) {
  KnowledgeBase kb("K1");
  int calls = 0;
  kb.subscribe("TrafficFrequency.*", [&](const Knowgget&) { ++calls; });
  kb.put("TrafficFrequency.TCPSYN", 1.0);
  kb.put("TrafficFrequency.UDP", 2.0);
  kb.put("Mobility", 3.0);
  EXPECT_EQ(calls, 2);
}

TEST(KnowledgeBase, Unsubscribe) {
  KnowledgeBase kb("K1");
  int calls = 0;
  const int id = kb.subscribe("X", [&](const Knowgget&) { ++calls; });
  kb.put("X", "1");
  kb.unsubscribe(id);
  kb.put("X", "2");
  EXPECT_EQ(calls, 1);
}

/// Minimal CollectiveSink recording the labels it saw.
struct RecordingSink final : CollectiveSink {
  void onCollective(const Knowgget& k) override { labels.push_back(k.label); }
  std::vector<std::string> labels;
};

TEST(KnowledgeBase, CollectiveSinkReceivesOnlyCollective) {
  KnowledgeBase kb("K1");
  RecordingSink sink;
  kb.addCollectiveSink(&sink);
  kb.put("Mobility", true, "", /*collective=*/true);
  kb.put("Multihop", true, "", /*collective=*/false);
  ASSERT_EQ(sink.labels.size(), 1u);
  EXPECT_EQ(sink.labels[0], "Mobility");
}

TEST(KnowledgeBase, MultipleCollectiveSinksFireInOrderAndDeduplicate) {
  KnowledgeBase kb("K1");
  RecordingSink a;
  RecordingSink b;
  kb.addCollectiveSink(&a);
  kb.addCollectiveSink(&b);
  kb.addCollectiveSink(&a);  // duplicate registration: no double delivery
  kb.put("Mobility", true, "", /*collective=*/true);
  EXPECT_EQ(a.labels, std::vector<std::string>{"Mobility"});
  EXPECT_EQ(b.labels, std::vector<std::string>{"Mobility"});
  kb.removeCollectiveSink(&a);
  kb.put("Mobility", false, "", /*collective=*/true);
  EXPECT_EQ(a.labels.size(), 1u);
  EXPECT_EQ(b.labels.size(), 2u);
}

TEST(KnowledgeBase, TemplatedPutNormalizesArgumentTypes) {
  KnowledgeBase kb("K1");
  kb.put("Count", 8);                  // int -> long long
  kb.put("Share", 0.25f);              // float -> double
  kb.put("Name", "thermostat");        // const char* -> std::string
  kb.put("Flag", true);                // bool stays bool
  EXPECT_EQ(kb.local<long long>("Count"), 8);
  EXPECT_DOUBLE_EQ(*kb.local<double>("Share"), 0.25);
  EXPECT_EQ(kb.local("Name"), "thermostat");  // default T = std::string
  EXPECT_EQ(kb.local<bool>("Flag"), true);
  // Cross-kind decode of an incompatible encoding yields nullopt.
  EXPECT_EQ(kb.local<long long>("Name"), std::nullopt);
}

TEST(KnowledgeBase, RemoteCannotImpersonateLocal) {
  KnowledgeBase kb("K1");
  Knowgget fake;
  fake.creator = "K1";  // claims to be us
  fake.label = "Multihop";
  fake.value = "true";
  EXPECT_FALSE(kb.putRemote(fake));
  EXPECT_EQ(kb.local("Multihop"), std::nullopt);
}

TEST(KnowledgeBase, RemoteUpdateOnlyOwnKnowggets) {
  // "T1 can only update those knowggets in T2 that were originally
  // generated by itself" (§IV-B3).
  KnowledgeBase kb("K1");
  Knowgget k2Knowledge;
  k2Knowledge.creator = "K2";
  k2Knowledge.label = "Mobility";
  k2Knowledge.value = "false";
  ASSERT_TRUE(kb.putRemote(k2Knowledge));

  k2Knowledge.value = "true";  // K2 updates its own entry: allowed
  EXPECT_TRUE(kb.putRemote(k2Knowledge));
  EXPECT_EQ(kb.raw("K2$Mobility"), "true");
}

TEST(KnowledgeBase, WritesDisabledFreezesEverything) {
  KnowledgeBase kb("K1");
  kb.disableWrites();
  kb.put("Multihop", true);
  Knowgget remote;
  remote.creator = "K2";
  remote.label = "X";
  remote.value = "1";
  EXPECT_FALSE(kb.putRemote(remote));
  EXPECT_EQ(kb.size(), 0u);
}

TEST(KnowledgeBase, ClockStampsUpdates) {
  KnowledgeBase kb("K1");
  SimTime now = 0;
  kb.setClock([&] { return now; });
  now = seconds(5);
  kb.put("Multihop", true);
  EXPECT_EQ(kb.all()[0].updated, seconds(5));
}

TEST(KnowledgeBase, MemoryAccountingGrows) {
  KnowledgeBase kb("K1");
  const std::size_t before = kb.memoryBytes();
  for (int i = 0; i < 50; ++i) {
    kb.put("SignalStrength", -60, "node" + std::to_string(i));
  }
  EXPECT_GT(kb.memoryBytes(), before + 50 * 16);
}

TEST(KnowledgeBase, SubscriberCanSubscribeDuringNotify) {
  // The Module Manager's activation callbacks may install new subscriptions
  // while a notification is being dispatched; this must not invalidate the
  // iteration.
  KnowledgeBase kb("K1");
  int nested = 0;
  kb.subscribe("A", [&](const Knowgget&) {
    kb.subscribe("B", [&](const Knowgget&) { ++nested; });
  });
  kb.put("A", "1");
  kb.put("B", "1");
  EXPECT_EQ(nested, 1);
}

// --- notification semantics under reentrant callbacks -------------------------

TEST(KnowledgeBase, UnsubscribedLaterSubscriberStillFiresForCurrentChange) {
  // The set of subscribers a change notifies is fixed when the change
  // happens: unsubscribing a later matching subscriber from inside a
  // callback takes effect from the next change on.
  KnowledgeBase kb("K1");
  std::vector<std::string> fired;
  int laterId = 0;
  kb.subscribe("X", [&](const Knowgget& k) {
    fired.push_back("first:" + k.value);
    kb.unsubscribe(laterId);
  });
  laterId = kb.subscribe("X", [&](const Knowgget& k) {
    fired.push_back("later:" + k.value);
  });
  kb.put("X", "1");
  kb.put("X", "2");
  EXPECT_EQ(fired,
            (std::vector<std::string>{"first:1", "later:1", "first:2"}));
}

TEST(KnowledgeBase, SubscriptionAddedInCallbackFiresFromNextChange) {
  KnowledgeBase kb("K1");
  std::vector<std::string> fired;
  bool added = false;
  kb.subscribe("X*", [&](const Knowgget& k) {
    fired.push_back("outer:" + k.value);
    if (added) return;
    added = true;
    kb.subscribe("X", [&](const Knowgget& inner) {
      fired.push_back("added:" + inner.value);
    });
  });
  kb.put("X", "1");
  EXPECT_EQ(fired, std::vector<std::string>{"outer:1"});
  kb.put("X", "2");
  EXPECT_EQ(fired, (std::vector<std::string>{"outer:1", "outer:2", "added:2"}));
}

TEST(KnowledgeBase, PutFromCallbackNestsInsideTheOuterNotification) {
  // A callback that writes another key runs that change's notification to
  // completion before the outer change reaches its remaining subscribers,
  // and every subscriber of the outer change sees the outer knowgget.
  KnowledgeBase kb("K1");
  std::vector<std::string> fired;
  kb.subscribe("A", [&](const Knowgget& k) {
    fired.push_back("a1:" + k.label + "=" + k.value);
    kb.put("B", "b" + k.value);
  });
  kb.subscribe("*", [&](const Knowgget& k) {
    fired.push_back("all:" + k.label + "=" + k.value);
  });
  kb.subscribe("A", [&](const Knowgget& k) {
    fired.push_back("a2:" + k.label + "=" + k.value);
  });
  kb.put("A", "1");
  EXPECT_EQ(fired, (std::vector<std::string>{"a1:A=1", "all:B=b1", "all:A=1",
                                             "a2:A=1"}));
  EXPECT_EQ(kb.local("B"), "b1");
}

TEST(KnowledgeBase, RewriteOfSameKeyFromCallbackKeepsOuterValueForLaterSubs) {
  // The first subscriber overwrites the key it was notified about; the
  // later subscriber and the collective sink still receive the outer change
  // after the nested one, and the store keeps the nested (last) value.
  KnowledgeBase kb("K1");
  std::vector<std::string> fired;
  struct Sink final : CollectiveSink {
    void onCollective(const Knowgget& k) override { values.push_back(k.value); }
    std::vector<std::string> values;
  } sink;
  kb.addCollectiveSink(&sink);
  kb.subscribe("X", [&](const Knowgget& k) {
    fired.push_back("first:" + k.value);
    if (k.value == "1") kb.put("X", "2", "", /*collective=*/true);
  });
  kb.subscribe("X", [&](const Knowgget& k) {
    fired.push_back("later:" + k.value);
  });
  kb.put("X", "1", "", /*collective=*/true);
  EXPECT_EQ(fired, (std::vector<std::string>{"first:1", "first:2", "later:2",
                                             "later:1"}));
  EXPECT_EQ(sink.values, (std::vector<std::string>{"2", "1"}));
  EXPECT_EQ(kb.local("X"), "2");
}

TEST(KnowledgeBase, SubscriptionFiresCountsEveryMatchedCallback) {
  KnowledgeBase kb("K1");
  kb.subscribe("TrafficFrequency.*", [](const Knowgget&) {});
  kb.subscribe("TrafficFrequency.UDP", [](const Knowgget&) {});
  kb.subscribe("Mobility", [](const Knowgget&) {});
  kb.put("TrafficFrequency.UDP", 1.0);   // 2 matches
  kb.put("TrafficFrequency.UDP", 1.0);   // unchanged: none
  kb.put("TrafficFrequency.TCPSYN", 2.0, "0x0005");  // 1 match
  kb.put("Multihop", true);              // no match, still a publish
  EXPECT_EQ(kb.subscriptionFires().value(), 3u);
  EXPECT_EQ(kb.publishes().value(), 3u);
}

TEST(KnowledgeBase, CollectiveSinkGetsOneCopyPerChangeOnly) {
  KnowledgeBase kb("K1");
  RecordingSink sink;
  kb.addCollectiveSink(&sink);
  int subscriberCalls = 0;
  kb.subscribe("*", [&](const Knowgget&) { ++subscriberCalls; });
  kb.subscribe("Mobility", [&](const Knowgget&) { ++subscriberCalls; });
  kb.put("Mobility", true, "", /*collective=*/true);
  kb.put("Mobility", true, "", /*collective=*/true);  // unchanged
  kb.put("Mobility", false, "", /*collective=*/true);
  kb.put("Mobility", false, "", /*collective=*/true);  // unchanged
  EXPECT_EQ(sink.labels,
            (std::vector<std::string>{"Mobility", "Mobility"}));
  EXPECT_EQ(subscriberCalls, 4);
}

}  // namespace
}  // namespace kalis::ids
