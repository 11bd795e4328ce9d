// The Knowledge Base and Collective Knowledge Management (paper §IV-B3, §V).
//
// A knowgget is the tuple <label, value, creator, entity>. The implementation
// mirrors the paper's key-value encoding exactly (Fig. 5b):
//
//     key   = "creator$label@entity"  (or "creator$label" with no entity)
//     value = string
//
// Multilevel knowggets flatten their hierarchy into dot-notation labels
// ("TrafficFrequency.TCPSYN"). Lookups by creator are prefix scans, lookups
// by entity are suffix scans, and exact keys are direct hits.
//
// Typed access goes through the single templated put<T>() / local<T>() pair:
// any argument type is normalized onto one of the four canonical value kinds
// (bool, long long, double, std::string) and encoded/decoded by the
// explicitly specialized KnowggetCodec.
//
// Collective knowledge: a knowgget marked collective is pushed, on change, to
// the CollectiveSink seam. Two kinds of sink exist: the in-simulator one-way
// peer channels installed by KalisNode::addPeer, and the cross-shard
// KnowledgeExchange of kalis::pipeline. Incoming remote knowggets may only
// create-or-update entries whose creator matches the sending node — a peer
// can never overwrite another node's knowledge (paper's one-way update rule).
//
// Shard-confinement contract (DESIGN.md §7/§8): a KnowledgeBase — store,
// subscriptions and sinks — is owned by exactly one thread for its
// lifetime; it carries no locks by design. kalis::pipeline gives every
// shard its own KB built on the owning worker thread. Debug builds bind an
// ownership checker on the first mutation (put/putRemote/subscribe)
// and abort on any cross-thread access; reads follow the same confinement.
// Collective sync via putRemote is a *same-thread* mechanism: peer nodes
// must share the owner thread (and simulator). The one sanctioned way for
// knowledge to cross shards is the pipeline's KnowledgeExchange ring
// (DESIGN.md §8): a sink buffers changed collective knowggets on the owner
// thread, the exchange carries copies between shards, and the receiving
// worker applies them through putRemote on its own KB — every KB mutation
// still happens on the owning thread.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/thread_check.hpp"
#include "util/types.hpp"

namespace kalis::ids {

struct Knowgget {
  std::string label;
  std::string value;
  std::string creator;
  std::string entity;       ///< empty when not entity-specific
  bool collective = false;
  SimTime updated = 0;
};

/// "creator$label@entity" (entity part omitted when empty).
std::string encodeKey(std::string_view creator, std::string_view label,
                      std::string_view entity);

struct KeyParts {
  std::string creator;
  std::string label;
  std::string entity;
};

/// Inverse of encodeKey; nullopt if the '$' separator is missing.
std::optional<KeyParts> decodeKey(std::string_view key);

/// String codec for knowgget values (Fig. 5b stores every value as a
/// string). Only the four explicit specializations below exist — they are
/// the canonical value kinds of the Knowledge Base; put<T>()/local<T>()
/// normalize every argument type onto one of them via KnowggetValueT.
template <typename T>
struct KnowggetCodec;

template <>
struct KnowggetCodec<bool> {
  static std::string encode(bool v) { return v ? "true" : "false"; }
  static std::optional<bool> decode(const std::string& s) {
    return parseBool(s);
  }
};

template <>
struct KnowggetCodec<long long> {
  static std::string encode(long long v) { return std::to_string(v); }
  static std::optional<long long> decode(const std::string& s) {
    return parseInt(s);
  }
};

template <>
struct KnowggetCodec<double> {
  static std::string encode(double v) { return formatDouble(v); }
  static std::optional<double> decode(const std::string& s) {
    return parseDouble(s);
  }
};

template <>
struct KnowggetCodec<std::string> {
  static std::string encode(std::string v) { return v; }
  static std::optional<std::string> decode(std::string s) {
    return std::optional<std::string>(std::move(s));
  }
};

/// Maps an argument type onto its canonical knowgget value kind: bool stays
/// bool, other integrals widen to long long, floating point widens to
/// double, and everything else (std::string, const char*, string_view)
/// becomes std::string.
template <typename T>
using KnowggetValueT = std::conditional_t<
    std::is_same_v<std::decay_t<T>, bool>, bool,
    std::conditional_t<
        std::is_integral_v<std::decay_t<T>>, long long,
        std::conditional_t<std::is_floating_point_v<std::decay_t<T>>, double,
                           std::string>>>;

/// Receives every changed local collective knowgget of a KnowledgeBase for
/// propagation beyond the owning node. The two implementations are the
/// in-simulator one-way peer channels (KalisNode::addPeer) and the
/// cross-shard KnowledgeExchange of kalis::pipeline — one seam for both.
/// Sinks are invoked synchronously on the KB owner thread and must not
/// mutate the KB reentrantly.
class CollectiveSink {
 public:
  virtual ~CollectiveSink() = default;
  virtual void onCollective(const Knowgget& k) = 0;
};

/// An immutable, shareable knowledge segment (DESIGN.md §11): a sorted,
/// read-only set of knowggets that many KnowledgeBases reference through one
/// shared_ptr instead of each holding a private copy. kalis::fleet gives
/// every home in a region the same baseline segment; a home's KnowledgeBase
/// then stores only the knowggets that *diverge* from the baseline
/// (copy-on-write overlay), so fleet memory stays sublinear in homes.
///
/// Segments are frozen at construction — there is no mutation API, which is
/// what makes the cross-thread sharing safe without locks.
class BaselineSegment {
 public:
  /// Takes ownership of `entries`; keys are derived via encodeKey and the
  /// set is sorted by key (later duplicates win, mirroring map insertion).
  explicit BaselineSegment(std::vector<Knowgget> entries);

  /// Entry under the exact encoded key, or nullptr.
  const Knowgget* find(const std::string& key) const;

  /// All entries, sorted by encoded key.
  const std::vector<std::pair<std::string, Knowgget>>& entries() const {
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }

  /// Live bytes of the segment itself — counted ONCE fleet-wide, not per
  /// referencing KnowledgeBase.
  std::size_t memoryBytes() const;

 private:
  std::vector<std::pair<std::string, Knowgget>> entries_;  ///< sorted by key
};

class KnowledgeBase {
 public:
  /// `selfId` is this Kalis node's identifier (the creator stamped on local
  /// knowggets), e.g. "K1".
  explicit KnowledgeBase(std::string selfId);

  const std::string& selfId() const { return selfId_; }

  /// Attaches a shared immutable baseline segment (DESIGN.md §11). Reads
  /// fall through to the baseline wherever the private overlay has no entry
  /// for the key; writes always land in the overlay (copy-on-write), and a
  /// write whose value matches the baseline entry is a no-op that costs no
  /// overlay memory. Set before the first write; replacing a baseline under
  /// live subscriptions is not supported.
  void setBaseline(std::shared_ptr<const BaselineSegment> baseline) {
    baseline_ = std::move(baseline);
  }
  const BaselineSegment* baseline() const { return baseline_.get(); }

  /// Advances the timestamp recorded on subsequent writes.
  void setClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  // --- writes ---------------------------------------------------------------

  /// Inserts/updates a local knowgget (creator = selfId), encoding `value`
  /// through KnowggetCodec<KnowggetValueT<T>>. Subscriptions fire only when
  /// the stored value actually changes.
  template <typename T>
  void put(const std::string& label, const T& value,
           const std::string& entity = "", bool collective = false) {
    putEncoded(label, KnowggetCodec<KnowggetValueT<T>>::encode(value), entity,
               collective);
  }

  /// Accepts a knowgget synchronized from a peer. Enforces the one-way rule:
  /// the update is rejected (returns false) if `k.creator` equals the local
  /// id, or if an existing entry under the same key has a different creator.
  bool putRemote(const Knowgget& k);

  // --- reads ----------------------------------------------------------------

  /// Raw value by full key ("K1$Multihop").
  std::optional<std::string> raw(const std::string& key) const;

  /// Local knowgget value (creator = selfId), decoded as T — one of the
  /// four canonical value kinds. Defaults to the raw string form.
  template <typename T = std::string>
  std::optional<T> local(const std::string& label,
                         const std::string& entity = "") const {
    static_assert(
        std::is_same_v<T, KnowggetValueT<T>>,
        "local<T>: T must be bool, long long, double or std::string");
    std::optional<std::string> v = rawLocal(label, entity);
    if (!v) return std::nullopt;
    return KnowggetCodec<T>::decode(*std::move(v));
  }

  /// All knowggets with this exact label, from any creator/entity.
  std::vector<Knowgget> byLabel(const std::string& label) const;
  /// All knowggets for an entity (suffix match on the key).
  std::vector<Knowgget> byEntity(const std::string& entity) const;
  /// Subtree of a multilevel knowgget: label itself plus "label.…" children,
  /// any creator.
  std::vector<Knowgget> byLabelPrefix(const std::string& labelPrefix) const;
  /// Everything created by a given Kalis node (prefix scan).
  std::vector<Knowgget> byCreator(const std::string& creator) const;

  std::vector<Knowgget> all() const;
  /// Logical knowgget count: overlay entries plus baseline entries the
  /// overlay does not shadow.
  std::size_t size() const;
  /// Overlay entries only — the knowggets this KB pays memory for.
  std::size_t overlaySize() const { return store_.size(); }

  /// Approximate live footprint, for the RAM accounting proxy. Counts the
  /// private overlay only: an attached BaselineSegment is shared and must be
  /// accounted once per segment (BaselineSegment::memoryBytes), not per KB.
  std::size_t memoryBytes() const;

  // --- subscriptions (the publish/subscribe activation mechanism) -----------

  /// `labelPattern` is an exact label, or a prefix pattern ending in "*"
  /// ("TrafficFrequency.*"). The callback fires on any value change with a
  /// matching label, from any creator. A change notifies the subscriptions
  /// registered when it is made, in registration order — including one an
  /// earlier callback unsubscribes; one a callback adds fires from the next
  /// change on. A put made by a callback is notified in full before the
  /// outer change reaches its remaining subscribers.
  using Subscription = std::function<void(const Knowgget&)>;
  int subscribe(const std::string& labelPattern, Subscription fn);
  void unsubscribe(int id);

  /// Registers a sink that receives every changed local collective
  /// knowgget. Non-owning; several sinks may coexist (e.g. the peer channel
  /// and the pipeline exchange) and fire in registration order. Re-adding a
  /// registered sink is a no-op.
  void addCollectiveSink(CollectiveSink* sink);
  void removeCollectiveSink(CollectiveSink* sink);

  /// Disables all writes for the rest of this KB's life: every later put
  /// and putRemote is a no-op (used to emulate the "traditional IDS"
  /// baseline, which runs without a Knowledge Base). There is no way back,
  /// and no entry is ever removed, so a value a module put stays what the
  /// KB holds until the module puts another; TrafficStatsModule's
  /// change-only publishing relies on that.
  void disableWrites() { writesEnabled_ = false; }
  bool writesEnabled() const { return writesEnabled_; }

  // --- observability (kalis::obs) --------------------------------------------
  /// Local knowgget writes that actually changed a value.
  const obs::Counter& publishes() const { return publishes_; }
  /// Subscription callbacks fired (one per matched subscriber per change).
  const obs::Counter& subscriptionFires() const { return subscriptionFires_; }
  const obs::Counter& remoteAccepted() const { return remoteAccepted_; }
  const obs::Counter& remoteRejected() const { return remoteRejected_; }

  /// Appends KB metrics under `prefix` (e.g. "kalis.kb").
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  /// The storage primitive behind put<T>: value already in canonical
  /// string form.
  void putEncoded(const std::string& label, std::string value,
                  const std::string& entity, bool collective);
  /// raw() of the local key for (label, entity), encoded into keyBuf_.
  std::optional<std::string> rawLocal(const std::string& label,
                                      const std::string& entity) const;
  /// Fires the subscriptions matching `stored` (a store entry that just
  /// changed) — those registered when it changed, in registration order —
  /// then, if `toSinks`, the collective sinks. Callbacks and sinks receive
  /// one copy of the change, made only when any of them is there.
  void notify(const Knowgget& stored, bool toSinks);
  SimTime nowTs() const { return clock_ ? clock_() : 0; }
  /// Visits every logical entry in key order: the overlay merged over the
  /// baseline, overlay entries shadowing same-key baseline entries.
  template <typename Fn>
  void forEachEntry(Fn&& fn) const;

  util::ThreadOwnershipChecker owner_;
  std::string selfId_;
  std::function<SimTime()> clock_;
  std::map<std::string, Knowgget> store_;  ///< overlay, by encoded key
  /// The key buffer of putEncoded and rawLocal, reused so that neither
  /// allocates for a key longer than the small-string buffer. Mutable for
  /// the const reads: the KB is owned by one thread (owner_), and each use
  /// ends before any callback runs, so no two uses overlap.
  mutable std::string keyBuf_;
  std::shared_ptr<const BaselineSegment> baseline_;  ///< read-through layer
  struct Sub {
    int id;
    std::string pattern;
    Subscription fn;

    bool matches(const std::string& label) const;
  };
  /// Shared so that a subscription a notification has selected outlives an
  /// unsubscribe() made by an earlier callback of the same notification.
  std::vector<std::shared_ptr<const Sub>> subs_;
  /// The subscriptions of the notifications in progress, the innermost
  /// (nested) change's on top.
  std::vector<std::shared_ptr<const Sub>> firing_;
  int nextSubId_ = 1;
  std::vector<CollectiveSink*> collectiveSinks_;
  bool writesEnabled_ = true;
  obs::Counter publishes_;
  obs::Counter subscriptionFires_;
  obs::Counter remoteAccepted_;
  obs::Counter remoteRejected_;
};

template <typename Fn>
void KnowledgeBase::forEachEntry(Fn&& fn) const {
  // Both sides are sorted by encoded key: a two-pointer merge where the
  // overlay shadows same-key baseline entries.
  auto ov = store_.begin();
  if (baseline_) {
    for (const auto& [key, k] : baseline_->entries()) {
      while (ov != store_.end() && ov->first < key) {
        fn(ov->first, ov->second);
        ++ov;
      }
      if (ov != store_.end() && ov->first == key) continue;  // shadowed
      fn(key, k);
    }
  }
  for (; ov != store_.end(); ++ov) fn(ov->first, ov->second);
}

// Canonical knowgget labels shared between sensing and detection modules.
// Centralizing them prevents typo-induced activation bugs.
namespace labels {
inline constexpr const char* kMultihop = "Multihop";
inline constexpr const char* kMultihopWpan = "Multihop.P802154";
inline constexpr const char* kMultihopWifi = "Multihop.WiFi";
inline constexpr const char* kMobility = "Mobility";
inline constexpr const char* kMonitoredNodes = "MonitoredNodes";
inline constexpr const char* kCtpRoot = "CtpRoot";
inline constexpr const char* kSignalStrength = "SignalStrength";
inline constexpr const char* kTrafficFrequency = "TrafficFrequency";
inline constexpr const char* kProtocols = "Protocols";         // Protocols.TCP...
inline constexpr const char* kLinkEncryption = "LinkEncryption";
inline constexpr const char* kRole = "Role";
inline constexpr const char* kWormholeDrops = "Wormhole.Drops";
inline constexpr const char* kWormholeUnexplained = "Wormhole.Unexplained";
}  // namespace labels

}  // namespace kalis::ids
