#ifndef OSRS_SERVE_SUMMARY_CACHE_H_
#define OSRS_SERVE_SUMMARY_CACHE_H_

// Bounded LRU summary cache of the serving layer, keyed by
// (item id, item version, options fingerprint, k or trajectory).
//
// The version in the key is what makes invalidation O(1): a write to an
// item (SummaryServer::UpdateItem) gives that item a new version, and
// BumpEpoch gives every item one, without touching the cache — existing
// entries simply stop matching exact lookups and age out through normal
// LRU eviction. Stale entries are still reachable through LookupLatest,
// which is how the server serves a degraded older summary when a
// request's budget cannot fund a fresh solve.
//
// For prefix-closed options (IsPrefixClosed: greedy) the key's k is 0 and
// the entry is a trajectory: one deep solve that answers every k up to
// its depth from its prefix (TruncateToPrefix). Other options keep one
// entry per k, answered the same way — an entry solved at k holds exactly
// the picks k asks for. Only non-degraded summaries may be inserted, so a
// hit is bit-identical to a fresh full-budget solve at the requested k
// under the same options.
//
// Thread-safe; every operation is O(1) amortized under one mutex. Lock
// discipline is compile-checked: every container is OSRS_GUARDED_BY the
// cache mutex and the one lock-held helper is OSRS_REQUIRES-annotated
// (see src/common/sync.h).

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "api/review_summarizer.h"
#include "common/sync.h"

namespace osrs::serve {

/// Exact cache identity of one summary.
struct CacheKey {
  std::string item_id;
  /// The item's version: the epoch of its last write or of the last
  /// BumpEpoch, whichever is later (SummaryServer).
  uint64_t version = 0;
  uint64_t options_fingerprint = 0;
  /// The k the summary was solved for, or 0 for a trajectory that answers
  /// every k up to its depth.
  int k = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.version == b.version &&
           a.options_fingerprint == b.options_fingerprint && a.k == b.k &&
           a.item_id == b.item_id;
  }
};

/// Point-in-time cache statistics (monotonic except `entries`).
struct CacheStats {
  int64_t entries = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t stale_hits = 0;  // LookupLatest fallbacks that found an entry
  int64_t evictions = 0;
  int64_t inserts = 0;
};

class SummaryCache {
 public:
  /// `capacity` is the maximum number of cached summaries; 0 disables the
  /// cache entirely (every lookup misses, every insert is dropped).
  explicit SummaryCache(size_t capacity);
  SummaryCache(const SummaryCache&) = delete;
  SummaryCache& operator=(const SummaryCache&) = delete;

  /// Answers k from the entry under `key`: a hit copies the entry's
  /// k-pick prefix (TruncateToPrefix) into `out` and refreshes the entry's
  /// LRU position. An entry holding fewer picks than k needs is a miss.
  bool Lookup(const CacheKey& key, int k, ItemSummary* out)
      OSRS_EXCLUDES(mutex_);

  /// Version-agnostic lookup: answers k, under the same rule, from the
  /// newest-version entry for (key.item_id, key.options_fingerprint,
  /// key.k), whatever version it was solved for — key.version is ignored.
  /// Fails when that entry is too shallow for k. `version_out` receives the
  /// entry's version so the caller can tell a current hit from a stale
  /// one. Does not refresh LRU position — degraded fallbacks should not
  /// keep stale entries alive forever.
  bool LookupLatest(const CacheKey& key, int k, ItemSummary* out,
                    uint64_t* version_out) OSRS_EXCLUDES(mutex_);

  /// Inserts (or refreshes) `summary` under `key`, evicting the least
  /// recently used entry when full. A refresh keeps whichever summary
  /// holds more picks, so a shallower trajectory finishing late cannot
  /// replace a deeper one. Callers must only insert non-degraded
  /// summaries — the bit-identity contract above depends on it.
  void Insert(const CacheKey& key, const ItemSummary& summary)
      OSRS_EXCLUDES(mutex_);

  /// Drops every entry (stats keep accumulating).
  void Clear() OSRS_EXCLUDES(mutex_);

  CacheStats stats() const OSRS_EXCLUDES(mutex_);
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CacheKey key;
    ItemSummary summary;
  };

  struct KeyHash {
    size_t operator()(const CacheKey& key) const;
  };

  /// (item_id, fingerprint, k) rendered as a flat string — the index the
  /// version-agnostic LookupLatest goes through.
  static std::string LatestIndexKey(const std::string& item_id,
                                    uint64_t options_fingerprint, int k);

  void EraseLocked(std::list<Entry>::iterator it) OSRS_REQUIRES(mutex_);

  const size_t capacity_;

  mutable Mutex mutex_;
  /// front = most recently used
  std::list<Entry> lru_ OSRS_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index_
      OSRS_GUARDED_BY(mutex_);
  /// Newest-version entry per (item, fingerprint, k), whatever the insert
  /// order (with several workers a solve of an older version can finish
  /// last); entries point into lru_ and are erased when their target is
  /// evicted.
  std::unordered_map<std::string, std::list<Entry>::iterator> latest_
      OSRS_GUARDED_BY(mutex_);
  CacheStats stats_ OSRS_GUARDED_BY(mutex_);
};

}  // namespace osrs::serve

#endif  // OSRS_SERVE_SUMMARY_CACHE_H_
