#include "serve/summary_cache.h"

#include <functional>
#include <utility>

#include "common/strings.h"

namespace osrs::serve {

size_t SummaryCache::KeyHash::operator()(const CacheKey& key) const {
  size_t h = std::hash<std::string>{}(key.item_id);
  auto mix = [&h](uint64_t value) {
    h ^= std::hash<uint64_t>{}(value) + 0x9E3779B97F4A7C15ull + (h << 6) +
         (h >> 2);
  };
  mix(key.version);
  mix(key.options_fingerprint);
  mix(static_cast<uint64_t>(key.k));
  return h;
}

std::string SummaryCache::LatestIndexKey(const std::string& item_id,
                                         uint64_t options_fingerprint,
                                         int k) {
  return StrFormat("%s\x1f%llx\x1f%d", item_id.c_str(),
                   static_cast<unsigned long long>(options_fingerprint), k);
}

SummaryCache::SummaryCache(size_t capacity) : capacity_(capacity) {}

bool SummaryCache::Lookup(const CacheKey& key, int k, ItemSummary* out) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    ItemSummary answer = it->second->summary;
    if (TruncateToPrefix(k, &answer)) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      *out = std::move(answer);
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

bool SummaryCache::LookupLatest(const CacheKey& key, int k, ItemSummary* out,
                                uint64_t* version_out) {
  MutexLock lock(mutex_);
  auto it =
      latest_.find(LatestIndexKey(key.item_id, key.options_fingerprint, key.k));
  if (it == latest_.end()) return false;
  ItemSummary answer = it->second->summary;
  if (!TruncateToPrefix(k, &answer)) return false;
  ++stats_.stale_hits;
  *out = std::move(answer);
  *version_out = it->second->key.version;
  return true;
}

void SummaryCache::Insert(const CacheKey& key, const ItemSummary& summary) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (a coalesced flight may insert what a racing
    // request already cached, or a deeper trajectory of the same version).
    if (summary.entries.size() >= it->second->summary.entries.size()) {
      it->second->summary = summary;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (lru_.size() >= capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, summary});
  index_.emplace(key, lru_.begin());
  auto [latest, inserted] = latest_.try_emplace(
      LatestIndexKey(key.item_id, key.options_fingerprint, key.k),
      lru_.begin());
  if (!inserted && latest->second->key.version < key.version) {
    latest->second = lru_.begin();
  }
  ++stats_.inserts;
}

void SummaryCache::Clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  latest_.clear();
}

CacheStats SummaryCache::stats() const {
  MutexLock lock(mutex_);
  CacheStats out = stats_;
  out.entries = static_cast<int64_t>(lru_.size());
  return out;
}

void SummaryCache::EraseLocked(std::list<Entry>::iterator it) {
  std::string latest_key =
      LatestIndexKey(it->key.item_id, it->key.options_fingerprint, it->key.k);
  auto latest_it = latest_.find(latest_key);
  if (latest_it != latest_.end() && latest_it->second == it) {
    latest_.erase(latest_it);
  }
  index_.erase(it->key);
  lru_.erase(it);
}

}  // namespace osrs::serve
