#include "kalis/knowledge.hpp"

#include <algorithm>

namespace kalis::ids {

namespace {
/// encodeKey into `out`, replacing its contents (reusing its capacity).
void encodeKeyInto(std::string& out, std::string_view creator,
                   std::string_view label, std::string_view entity) {
  out.clear();
  out.reserve(creator.size() + label.size() + entity.size() + 2);
  out.append(creator);
  out.push_back('$');
  out.append(label);
  if (!entity.empty()) {
    out.push_back('@');
    out.append(entity);
  }
}
}  // namespace

std::string encodeKey(std::string_view creator, std::string_view label,
                      std::string_view entity) {
  std::string key;
  encodeKeyInto(key, creator, label, entity);
  return key;
}

std::optional<KeyParts> decodeKey(std::string_view key) {
  const std::size_t dollar = key.find('$');
  if (dollar == std::string_view::npos) return std::nullopt;
  KeyParts parts;
  parts.creator = std::string(key.substr(0, dollar));
  std::string_view rest = key.substr(dollar + 1);
  const std::size_t at = rest.rfind('@');
  if (at == std::string_view::npos) {
    parts.label = std::string(rest);
  } else {
    parts.label = std::string(rest.substr(0, at));
    parts.entity = std::string(rest.substr(at + 1));
  }
  return parts;
}

BaselineSegment::BaselineSegment(std::vector<Knowgget> entries) {
  entries_.reserve(entries.size());
  for (Knowgget& k : entries) {
    entries_.emplace_back(encodeKey(k.creator, k.label, k.entity),
                          std::move(k));
  }
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Later duplicates win, mirroring repeated map insertion.
  for (std::size_t i = entries_.size(); i-- > 1;) {
    if (entries_[i].first == entries_[i - 1].first) {
      entries_[i - 1] = std::move(entries_[i]);
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

const Knowgget* BaselineSegment::find(const std::string& key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& e, const std::string& k) { return e.first < k; });
  if (it == entries_.end() || it->first != key) return nullptr;
  return &it->second;
}

std::size_t BaselineSegment::memoryBytes() const {
  std::size_t bytes = sizeof(BaselineSegment);
  for (const auto& [key, k] : entries_) {
    bytes += key.size() + k.label.size() + k.value.size() + k.creator.size() +
             k.entity.size() + sizeof(std::pair<std::string, Knowgget>);
  }
  return bytes;
}

KnowledgeBase::KnowledgeBase(std::string selfId) : selfId_(std::move(selfId)) {}

void KnowledgeBase::putEncoded(const std::string& label, std::string value,
                               const std::string& entity, bool collective) {
  owner_.check("KnowledgeBase::put");
  if (!writesEnabled_) return;
  // One ordered lookup. The key buffer is free again before any callback
  // runs, so a put nested inside notify() may reuse it.
  encodeKeyInto(keyBuf_, selfId_, label, entity);
  auto it = store_.lower_bound(keyBuf_);
  if (it != store_.end() && it->first == keyBuf_) {
    if (it->second.value == value) return;  // unchanged
  } else {
    if (baseline_) {
      // Copy-on-write: re-asserting the baseline value costs no overlay
      // entry.
      const Knowgget* base = baseline_->find(keyBuf_);
      if (base != nullptr && base->value == value) return;
    }
    it = store_.emplace_hint(it, keyBuf_, Knowgget{});
  }

  Knowgget& k = it->second;
  k.label = label;
  k.value = std::move(value);
  k.creator = selfId_;
  k.entity = entity;
  k.collective = collective;
  k.updated = nowTs();
  publishes_.inc();
  notify(k, collective);
}

bool KnowledgeBase::putRemote(const Knowgget& k) {
  owner_.check("KnowledgeBase::putRemote");
  if (!writesEnabled_) {
    remoteRejected_.inc();
    return false;
  }
  if (k.creator == selfId_) {  // nobody may impersonate us
    remoteRejected_.inc();
    return false;
  }
  const std::string key = encodeKey(k.creator, k.label, k.entity);
  auto it = store_.find(key);
  if (it != store_.end()) {
    if (it->second.creator != k.creator) {  // one-way rule
      remoteRejected_.inc();
      return false;
    }
    if (it->second.value == k.value) return true;  // no change
  } else if (baseline_ != nullptr) {
    const Knowgget* base = baseline_->find(key);
    if (base != nullptr) {
      if (base->creator != k.creator) {  // one-way rule vs the baseline
        remoteRejected_.inc();
        return false;
      }
      // Matching the shared baseline costs no overlay entry (CoW).
      if (base->value == k.value) return true;
    }
  }
  Knowgget& stored = store_[key];
  stored = k;
  stored.updated = nowTs();
  remoteAccepted_.inc();
  notify(stored, /*toSinks=*/false);
  return true;
}

std::optional<std::string> KnowledgeBase::raw(const std::string& key) const {
  auto it = store_.find(key);
  if (it != store_.end()) return it->second.value;
  if (baseline_ != nullptr) {
    const Knowgget* base = baseline_->find(key);
    if (base != nullptr) return base->value;
  }
  return std::nullopt;
}

std::optional<std::string> KnowledgeBase::rawLocal(
    const std::string& label, const std::string& entity) const {
  encodeKeyInto(keyBuf_, selfId_, label, entity);
  return raw(keyBuf_);
}

std::vector<Knowgget> KnowledgeBase::byLabel(const std::string& label) const {
  std::vector<Knowgget> out;
  forEachEntry([&](const std::string&, const Knowgget& k) {
    if (k.label == label) out.push_back(k);
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::byEntity(const std::string& entity) const {
  std::vector<Knowgget> out;
  forEachEntry([&](const std::string&, const Knowgget& k) {
    if (k.entity == entity) out.push_back(k);
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::byLabelPrefix(
    const std::string& labelPrefix) const {
  std::vector<Knowgget> out;
  forEachEntry([&](const std::string&, const Knowgget& k) {
    if (k.label == labelPrefix ||
        (k.label.size() > labelPrefix.size() &&
         startsWith(k.label, labelPrefix) &&
         k.label[labelPrefix.size()] == '.')) {
      out.push_back(k);
    }
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::byCreator(const std::string& creator) const {
  std::vector<Knowgget> out;
  const std::string prefix = creator + "$";
  forEachEntry([&](const std::string& key, const Knowgget& k) {
    if (startsWith(key, prefix)) out.push_back(k);
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::all() const {
  std::vector<Knowgget> out;
  out.reserve(size());
  forEachEntry(
      [&](const std::string&, const Knowgget& k) { out.push_back(k); });
  return out;
}

std::size_t KnowledgeBase::size() const {
  if (baseline_ == nullptr) return store_.size();
  std::size_t shadowed = 0;
  for (const auto& [key, k] : store_) {
    if (baseline_->find(key) != nullptr) ++shadowed;
  }
  return store_.size() + baseline_->size() - shadowed;
}

std::size_t KnowledgeBase::memoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, k] : store_) {
    bytes += key.size() + k.label.size() + k.value.size() + k.creator.size() +
             k.entity.size() + sizeof(Knowgget);
  }
  return bytes;
}

int KnowledgeBase::subscribe(const std::string& labelPattern, Subscription fn) {
  owner_.check("KnowledgeBase::subscribe");
  const int id = nextSubId_++;
  subs_.push_back(
      std::make_shared<const Sub>(Sub{id, labelPattern, std::move(fn)}));
  return id;
}

void KnowledgeBase::addCollectiveSink(CollectiveSink* sink) {
  owner_.check("KnowledgeBase::addCollectiveSink");
  if (sink == nullptr) return;
  for (CollectiveSink* existing : collectiveSinks_) {
    if (existing == sink) return;
  }
  collectiveSinks_.push_back(sink);
}

void KnowledgeBase::removeCollectiveSink(CollectiveSink* sink) {
  owner_.check("KnowledgeBase::removeCollectiveSink");
  collectiveSinks_.erase(
      std::remove(collectiveSinks_.begin(), collectiveSinks_.end(), sink),
      collectiveSinks_.end());
}

void KnowledgeBase::unsubscribe(int id) {
  owner_.check("KnowledgeBase::unsubscribe");
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [id](const auto& s) { return s->id == id; }),
              subs_.end());
}

bool KnowledgeBase::Sub::matches(const std::string& label) const {
  if (!pattern.empty() && pattern.back() == '*') {
    return startsWith(label,
                      std::string_view(pattern).substr(0, pattern.size() - 1));
  }
  return label == pattern;
}

void KnowledgeBase::notify(const Knowgget& stored, bool toSinks) {
  // Select the matching subscriptions first: callbacks may subscribe,
  // unsubscribe and put (nesting another notify above this one on firing_).
  const std::size_t first = firing_.size();
  for (const auto& sub : subs_) {
    if (sub->matches(stored.label)) firing_.push_back(sub);
  }
  const std::size_t last = firing_.size();
  toSinks = toSinks && !collectiveSinks_.empty();
  if (first == last && !toSinks) return;

  // Callbacks may rewrite this very entry; everyone sees the change made.
  const Knowgget k = stored;
  for (std::size_t i = first; i < last; ++i) {
    subscriptionFires_.inc();
    firing_[i]->fn(k);
  }
  firing_.resize(first);
  if (toSinks) {
    // Snapshot: a sink may (un)register sinks while handling the knowgget.
    const std::vector<CollectiveSink*> sinks = collectiveSinks_;
    for (CollectiveSink* sink : sinks) sink->onCollective(k);
  }
}

void KnowledgeBase::collectMetrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".publishes", publishes_);
  reg.counter(prefix + ".subscription_fires", subscriptionFires_);
  reg.counter(prefix + ".remote_accepted", remoteAccepted_);
  reg.counter(prefix + ".remote_rejected", remoteRejected_);
  reg.gauge(prefix + ".knowggets", static_cast<double>(size()),
            static_cast<double>(size()));
  reg.gauge(prefix + ".memory_bytes", static_cast<double>(memoryBytes()),
            static_cast<double>(memoryBytes()));
  reg.gauge(prefix + ".subscriptions", static_cast<double>(subs_.size()),
            static_cast<double>(subs_.size()));
}

}  // namespace kalis::ids
