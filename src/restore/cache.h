#ifndef RESTORE_RESTORE_CACHE_H_
#define RESTORE_RESTORE_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "storage/table.h"

namespace restore {

/// Cache of completed joins (Section 4.5): data synthesized for one query is
/// reused by later queries over the same join path, and queries over a
/// sub-path reuse a superset join by projection.
///
/// Epochs: each entry belongs to one data/model generation (epoch) of the
/// owning Db, and the cache holds only the newest epoch it was given. A Put
/// at a newer epoch first drops every held entry (not an eviction), a Put at
/// an older epoch is not stored, and lookups at any other epoch miss, so a
/// query pinned at an older epoch completes over its own snapshot uncached.
///
/// Budget: `budget_bytes` bounds the total approximate payload size. On
/// overflow the least-recently-used entries are evicted; an entry larger
/// than the whole budget is not cached at all. 0 = unbounded.
///
/// Thread safety: one mutex guards the entries, which are few (one per join
/// path queried in the held epoch) and scanned linearly. Lookups return
/// shared_ptr handles, so a result stays valid even if its entry is evicted
/// or dropped while the caller still aggregates over it.
class CompletionCache {
 public:
  explicit CompletionCache(size_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  /// Stores a completed join covering exactly `tables`, computed at `epoch`,
  /// in place of any held join over the same tables.
  void Put(const std::set<std::string>& tables,
           std::shared_ptr<const Table> joined, uint64_t epoch = 0);
  void Put(const std::set<std::string>& tables, Table joined,
           uint64_t epoch = 0) {
    Put(tables, std::make_shared<const Table>(std::move(joined)), epoch);
  }

  /// Exact hit: a completed join over exactly `tables` at `epoch`, or
  /// nullptr.
  std::shared_ptr<const Table> GetExact(const std::set<std::string>& tables,
                                        uint64_t epoch = 0) const {
    return Lookup(tables, epoch, /*exact=*/true);
  }

  /// Superset hit: the cached join of `epoch` with the fewest tables whose
  /// table set is a superset of `tables` (its projection serves the query),
  /// or nullptr. Ties go to the smaller sorted "t1|t2|...|" string.
  std::shared_ptr<const Table> GetCovering(const std::set<std::string>& tables,
                                           uint64_t epoch = 0) const {
    return Lookup(tables, epoch, /*exact=*/false);
  }

  size_t size() const;
  /// Approximate bytes of all cached payloads.
  size_t bytes() const;
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Entries evicted to stay within the budget (dropped epochs not counted).
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t budget_bytes() const { return budget_bytes_; }

  /// Approximate in-memory payload size of a table (column vectors only).
  static size_t ApproxTableBytes(const Table& table);

 private:
  struct Entry {
    std::set<std::string> tables;
    std::shared_ptr<const Table> joined;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  std::shared_ptr<const Table> Lookup(const std::set<std::string>& tables,
                                      uint64_t epoch, bool exact) const;

  const size_t budget_bytes_;
  mutable std::mutex mu_;
  // Guarded by mu_: the held epoch, its entries, their bytes, the LRU clock.
  uint64_t epoch_ = 0;
  mutable std::vector<Entry> entries_;
  size_t bytes_ = 0;
  mutable uint64_t clock_ = 0;
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
};

}  // namespace restore

#endif  // RESTORE_RESTORE_CACHE_H_
