// Entity-keyed state containers for modules on the per-packet hot path.
//
// Pre-zero-copy, module state was keyed by entity *strings* ("10.0.0.2",
// "02:4b:41:00:00:07"), so every captured packet paid one or more
// std::string constructions just to index a map. EntityKeyedMap keys by
// net::EntityRef instead — a fixed-size, trivially-copyable value hashed in
// a few instructions — so lookups and insertions on the packet path are
// allocation-free. The entity's string form is computed once, when the
// entry is first created, and cached next to the value for alert text.
//
// Ordered iteration (forEachOrdered) walks entries in LABEL ORDER — the
// iteration order of the std::map<std::string, V> these modules used
// before — so alert emission order, and with it the golden SIEM streams,
// stays byte-identical. Sorting happens lazily at iteration time (tick
// cadence), never per packet.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kalis/knowledge.hpp"
#include "net/entity_ref.hpp"

namespace kalis::ids {

template <class V>
class EntityKeyedMap {
 public:
  struct Entry {
    net::EntityRef key;
    std::string label;  ///< key.toString(), cached at insertion
    V value;
  };

  /// Allocation-free on the hit path: V is constructed from `args` only on
  /// a miss, together with the cached label (the only string built, once
  /// per new entity).
  template <class... Args>
  std::pair<Entry*, bool> tryEmplace(const net::EntityRef& key,
                                     Args&&... args) {
    if (auto it = map_.find(key); it != map_.end()) return {&it->second, false};
    auto [it, inserted] = map_.try_emplace(
        key, Entry{key, key.toString(), V(std::forward<Args>(args)...)});
    dirty_ = true;
    return {&it->second, inserted};
  }

  Entry* find(const net::EntityRef& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  const Entry* find(const net::EntityRef& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Linear scan by cached label — for test/introspection APIs that still
  /// address entities by string; never used on the packet path.
  const Entry* findByLabel(const std::string& label) const {
    for (const auto& [k, e] : map_) {
      if (e.label == label) return &e;
    }
    return nullptr;
  }

  /// Visits every entry in ascending label order (the legacy
  /// string-map order; see the header comment).
  template <class Fn>
  void forEachOrdered(Fn&& fn) {
    ensureSorted();
    for (Entry* e : sorted_) fn(*e);
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() {
    map_.clear();
    sorted_.clear();
    dirty_ = false;
  }

  /// RAM-proxy accounting: per-entry overhead plus whatever the caller
  /// measures for V itself.
  std::size_t entryOverheadBytes() const {
    std::size_t bytes = 0;
    for (const auto& [k, e] : map_) bytes += sizeof(Entry) + e.label.size();
    return bytes;
  }

  template <class Fn>
  void forEachUnordered(Fn&& fn) const {
    for (const auto& [k, e] : map_) fn(e);
  }

 private:
  void ensureSorted() {
    if (!dirty_ && sorted_.size() == map_.size()) return;
    sorted_.clear();
    sorted_.reserve(map_.size());
    // Entry addresses are stable: unordered_map never relocates nodes.
    for (auto& [k, e] : map_) sorted_.push_back(&e);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Entry* a, const Entry* b) { return a->label < b->label; });
    dirty_ = false;
  }

  std::unordered_map<net::EntityRef, Entry> map_;
  std::vector<Entry*> sorted_;
  bool dirty_ = false;
};

/// The entity a local knowgget names (CtpRoot = "0x0001"), kept current
/// through a Knowledge Base subscription so the packet path compares
/// EntityRefs instead of looking the knowgget up and comparing strings on
/// every packet. Binds to the KB it is first read from (and rebinds if
/// handed another); that KB must outlive the cache. A local knowgget
/// changes only through put(), which notifies the subscription, and is never
/// removed, so the cache is always current.
class KnowggetEntityCache {
 public:
  explicit KnowggetEntityCache(std::string label) : label_(std::move(label)) {}
  ~KnowggetEntityCache() { unbind(); }
  KnowggetEntityCache(const KnowggetEntityCache&) = delete;
  KnowggetEntityCache& operator=(const KnowggetEntityCache&) = delete;

  /// The cache, current for `kb`.
  const KnowggetEntityCache& in(KnowledgeBase& kb) {
    if (kb_ != &kb) bind(kb);
    return *this;
  }
  /// The knowgget's local value ("" while unset).
  const std::string& value() const { return value_; }
  /// The entity value() names; nullopt when it names none.
  const std::optional<net::EntityRef>& entity() const { return entity_; }

 private:
  void bind(KnowledgeBase& kb) {
    unbind();
    kb_ = &kb;
    subscription_ = kb.subscribe(label_, [this](const Knowgget& k) {
      if (k.creator == kb_->selfId() && k.entity.empty()) set(k.value);
    });
    set(kb.local(label_).value_or(""));
  }
  void unbind() {
    if (kb_ != nullptr) kb_->unsubscribe(subscription_);
    kb_ = nullptr;
  }
  void set(const std::string& value) {
    value_ = value;
    entity_ = net::EntityRef::fromLabel(value);
  }

  std::string label_;
  KnowledgeBase* kb_ = nullptr;
  int subscription_ = 0;
  std::string value_;
  std::optional<net::EntityRef> entity_;
};

/// Selects the entity with the highest count; ties break toward the
/// lexicographically smallest string form — exactly the "first strict
/// maximum over a string-sorted map" the pre-EntityRef code computed.
template <class Map>
net::EntityRef dominantEntity(const Map& counts) {
  net::EntityRef best;
  std::size_t bestCount = 0;
  std::string bestLabel;
  for (const auto& [src, n] : counts) {
    if (n < bestCount) continue;
    std::string label = src.toString();
    if (n > bestCount || bestLabel.empty() || label < bestLabel) {
      best = src;
      bestCount = n;
      bestLabel = std::move(label);
    }
  }
  return best;
}

/// Sorted string forms of a set/range of entities — the order a
/// std::set<std::string> would have yielded.
template <class Range>
std::vector<std::string> sortedLabels(const Range& entities) {
  std::vector<std::string> labels;
  for (const auto& e : entities) labels.push_back(e.toString());
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace kalis::ids
