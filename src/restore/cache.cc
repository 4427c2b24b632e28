#include "restore/cache.h"

#include <algorithm>
#include <utility>

namespace restore {

namespace {

// The sorted "t1|t2|...|" string of a table set, which orders covering
// entries of equal size. Its order differs from std::set's when one name
// prefixes another: '_' < '|', so "h1_z|" < "h1|".
std::string JoinedNames(const std::set<std::string>& tables) {
  std::string joined;
  for (const auto& t : tables) (joined += t) += '|';
  return joined;
}

}  // namespace

size_t CompletionCache::ApproxTableBytes(const Table& table) {
  size_t bytes = sizeof(Table);
  for (const auto& col : table.columns()) {
    bytes += sizeof(Column) + col.name().size();
    bytes += col.ints().capacity() * sizeof(int64_t);
    bytes += col.doubles().capacity() * sizeof(double);
  }
  return bytes;
}

void CompletionCache::Put(const std::set<std::string>& tables,
                          std::shared_ptr<const Table> joined,
                          uint64_t epoch) {
  const size_t bytes = ApproxTableBytes(*joined);
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch < epoch_) return;  // computed over a snapshot no longer current
  if (epoch > epoch_) {
    // The Db's epoch only moves forward: no later query can reach the held
    // entries.
    entries_.clear();
    bytes_ = 0;
    epoch_ = epoch;
  }
  // An entry that alone exceeds the budget is not worth caching — rejecting
  // it up front keeps it from flushing every other entry first.
  if (budget_bytes_ != 0 && bytes > budget_bytes_) return;

  auto same = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.tables == tables; });
  if (same != entries_.end()) {
    bytes_ -= same->bytes;
    entries_.erase(same);
  }
  while (budget_bytes_ != 0 && bytes_ + bytes > budget_bytes_ &&
         !entries_.empty()) {
    auto victim = std::min_element(entries_.begin(), entries_.end(),
                                   [](const Entry& a, const Entry& b) {
                                     return a.last_used < b.last_used;
                                   });
    bytes_ -= victim->bytes;
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  entries_.push_back(Entry{tables, std::move(joined), bytes, ++clock_});
  bytes_ += bytes;
}

std::shared_ptr<const Table> CompletionCache::Lookup(
    const std::set<std::string>& tables, uint64_t epoch, bool exact) const {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* best = nullptr;
  for (Entry& e : entries_) {
    const bool match =
        epoch == epoch_ &&
        (exact ? e.tables == tables
               : std::includes(e.tables.begin(), e.tables.end(),
                               tables.begin(), tables.end()));
    if (!match) continue;
    if (best == nullptr || e.tables.size() < best->tables.size() ||
        (e.tables.size() == best->tables.size() &&
         JoinedNames(e.tables) < JoinedNames(best->tables))) {
      best = &e;
    }
  }
  if (best == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  best->last_used = ++clock_;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return best->joined;
}

size_t CompletionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t CompletionCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace restore
