#ifndef RESTORE_EXEC_EXEC_CONTROL_H_
#define RESTORE_EXEC_EXEC_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"

namespace restore {

/// A cooperative cancellation handle. Default-constructed tokens are
/// NON-cancellable (cancelled() is always false and costs nothing);
/// Cancellable() creates shared state that any copy of the token can flip.
/// RequestCancel is sticky — there is no un-cancel — and safe to call from
/// any thread, including concurrently with the query it aborts.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// A token whose RequestCancel actually does something.
  static CancellationToken Cancellable() {
    CancellationToken token;
    token.state_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// Requests cooperative cancellation. No-op on a non-cancellable token.
  void RequestCancel() const {
    if (state_ != nullptr) state_->store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return state_ != nullptr && state_->load(std::memory_order_acquire);
  }

  bool can_cancel() const { return state_ != nullptr; }

  /// The raw flag, for propagation into cancel-aware ParallelFor loops
  /// (shards skip once it is set). nullptr for non-cancellable tokens.
  const std::atomic<bool>* flag() const { return state_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Per-query timing and resource accounting. Every executed query returns
/// one on its ResultSet; the Db additionally aggregates them across queries
/// for scraping (Db::stats()).
struct ExecStats {
  double parse_seconds = 0.0;  // SQL -> Query (0 for prepared queries)
  double plan_seconds = 0.0;   // validation + column qualification
  /// Completion-path selection: ranking candidate paths for the query's
  /// incomplete tables, including the first-touch probe training behind the
  /// shared selection latch (near-zero once the selection is cached).
  /// Reported on its own so a selection-dominated query is visible instead
  /// of inflating sample_seconds.
  double selection_seconds = 0.0;
  /// Data production: completion-model sampling + completed-join build for
  /// Db execution (EXCLUDING path selection, see selection_seconds); for
  /// the classical (no-completion) executor this is the plain base-table
  /// join time.
  double sample_seconds = 0.0;
  double aggregate_seconds = 0.0;  // filter + grouped aggregation
  uint64_t tuples_completed = 0;   // synthesized tuples this query caused
  uint64_t models_consulted = 0;   // PathModel lookups this query performed
  uint64_t cache_hits = 0;         // completion-cache hits
  uint64_t cache_misses = 0;       // completion-cache misses
  uint64_t arenas_leased = 0;      // inference scratch arenas leased

  std::string ToString() const;
};

/// Knobs of one query execution, accepted by Session::Execute/ExecuteAsync,
/// PreparedQuery::Run/RunAsync, and Db::ExecuteCompleted*.
///
/// Cancellation contract: cancellation and deadlines are COOPERATIVE —
/// checked between pipeline stages, at join/aggregation row-block
/// boundaries, and between per-attribute sampling batches inside the model
/// loops. A cancelled query returns Status::Cancelled (an expired one
/// Status::DeadlineExceeded) within one sampling batch, releases every
/// leased inference arena (RAII), and leaks no pool tasks. An uncancelled
/// run is bit-identical to one without options: the checks never touch the
/// sampling RNG.
struct QueryOptions {
  /// Cooperative cancel handle; keep a copy and RequestCancel() from any
  /// thread to abort the query.
  CancellationToken cancel;

  /// Absolute deadline; time_point::max() (the default) means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Hard cap on the number of tuples the query may cause to be synthesized
  /// (completion cost scales with sampled tuples). Exceeding it fails the
  /// query with Status::ResourceExhausted. 0 = unbounded.
  uint64_t max_completed_rows = 0;

  /// Row-batch size of the returned ResultSet cursor (clamped to >= 1).
  size_t batch_rows = 256;

  /// Observability hook invoked with the in-flight ExecStats at every
  /// cooperative checkpoint, on the thread executing the query (the pool
  /// worker for async execution). Cancelling the token from inside the
  /// callback aborts at that very checkpoint, which makes deterministic
  /// cancellation tests possible. Keep it cheap; it runs often.
  std::function<void(const ExecStats&)> progress;

  /// Convenience: sets `deadline` to now + `timeout`.
  QueryOptions& WithTimeout(std::chrono::nanoseconds timeout) {
    deadline = std::chrono::steady_clock::now() + timeout;
    return *this;
  }
};

/// The per-execution context threaded through the executor, joins,
/// aggregation, and the PathModel completion loops. Call sites receive a
/// `const ExecContext*` that may be nullptr (internal/offline callers);
/// all methods tolerate a null `this`-less pattern via the static helpers
/// below. One ExecContext belongs to one query execution and is used from
/// the single thread driving that query (inner ParallelFor shards only ever
/// read the atomic cancel flag).
class ExecContext {
 public:
  ExecContext(const QueryOptions* options, ExecStats* stats)
      : options_(options), stats_(stats) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// The cooperative checkpoint: invokes the progress callback, then tests
  /// cancellation, then the deadline. OK when neither fired.
  Status Check() const {
    if (options_ == nullptr) return Status::OK();
    if (options_->progress && stats_ != nullptr) options_->progress(*stats_);
    if (options_->cancel.cancelled()) {
      return Status::Cancelled("query cancelled by caller");
    }
    if (options_->deadline !=
            std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= options_->deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// Null-tolerant checkpoint helper for call sites holding a maybe-null
  /// context pointer.
  static Status Check(const ExecContext* ctx) {
    return ctx == nullptr ? Status::OK() : ctx->Check();
  }

  /// Records `n` newly synthesized tuples and enforces max_completed_rows.
  Status AddCompletedTuples(uint64_t n) const {
    if (stats_ != nullptr) stats_->tuples_completed += n;
    if (options_ != nullptr && options_->max_completed_rows > 0 &&
        stats_ != nullptr &&
        stats_->tuples_completed > options_->max_completed_rows) {
      return Status::ResourceExhausted(
          "query exceeded max_completed_rows while sampling completions");
    }
    return Status::OK();
  }

  /// Mutable per-query stats (may be nullptr for stat-less contexts).
  ExecStats* stats() const { return stats_; }

  /// The token's raw flag for cancel-aware ParallelFor propagation
  /// (nullptr when the query is not cancellable).
  const std::atomic<bool>* cancel_flag() const {
    return options_ == nullptr ? nullptr : options_->cancel.flag();
  }

  /// Absolute deadline of the query (time_point::max() when none). Exposed
  /// so shared infrastructure (the once-latch waits) can honor a request's
  /// deadline without invoking its progress callback from a foreign thread.
  std::chrono::steady_clock::time_point deadline() const {
    return options_ == nullptr
               ? std::chrono::steady_clock::time_point::max()
               : options_->deadline;
  }

  size_t batch_rows() const {
    if (options_ == nullptr || options_->batch_rows == 0) return 256;
    return options_->batch_rows;
  }

  /// RCU snapshot pin. Under live ingestion the Db publishes one immutable
  /// epoch object (its data, join index and model heads) per ingest or
  /// model hot swap; the query's first data touch pins the current one
  /// here and every later lookup in the same query reads it, so one query
  /// never mixes two epochs. Opaque to the exec layer. Like stats(), it is
  /// written only from the single thread driving the query, hence const
  /// methods without locking.
  const std::shared_ptr<const void>& pin() const { return pin_; }
  void set_pin(std::shared_ptr<const void> pin) const {
    pin_ = std::move(pin);
  }

 private:
  const QueryOptions* options_;
  ExecStats* stats_;
  mutable std::shared_ptr<const void> pin_;
};

}  // namespace restore

#endif  // RESTORE_EXEC_EXEC_CONTROL_H_
