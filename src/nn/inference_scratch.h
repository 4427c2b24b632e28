#ifndef RESTORE_NN_INFERENCE_SCRATCH_H_
#define RESTORE_NN_INFERENCE_SCRATCH_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/matrix.h"

namespace restore {

/// Per-call activation/workspace buffers of one MadeModel inference pass.
/// The model itself is immutable during inference (see src/nn/README.md
/// "Consumers"); every mutable byte a pass touches lives here, so any number
/// of threads can run passes over ONE model concurrently as long as each
/// brings its own scratch.
///
/// The activations are unit-major: unit i's value for batch row r lives at
/// [i * ld + r], with `ld` the call's batch size rounded up to 16. They are
/// valid only within one SampleRange/PredictDistribution call, which
/// computes each hidden unit once and reads it back at later attributes;
/// no call reads what an earlier call left. The buffers grow and are never
/// cleared (a call writes every element before reading it), so a scratch
/// reused against the same model allocates nothing at steady state.
struct MadeScratch {
  size_t ld = 0;                   // row stride of the unit-major buffers
  std::vector<float> embedded;     // [num_attrs*embed_dim x ld] MADE input
  std::vector<float> hidden;       // [num_layers*hidden_dim x ld] h_l
  std::vector<float> context;      // [context_dim x ld] transposed context
  std::vector<float> terms;        // [outputs x ld] a panel's context terms
  std::vector<float> logit_block;  // [vocab x ld] one attribute's logits,
                                   // then its exp terms (SoftmaxPanel)
  std::vector<double> u;           // SampleRange pre-drawn uniforms
};

/// Per-call workspace of one DeepSetsEncoder inference pass. Child tables
/// are processed one at a time and pooled immediately, so a single set of
/// per-table buffers is reused across tables.
struct DeepSetsScratch {
  Matrix embedded;  // child-tuple embeddings of the current table
  Matrix z1;        // relu(phi1(embedded))
  Matrix z2;        // relu(phi2(z1))
  Matrix pooled;    // [batch x num_tables*phi_dim] sum-pooled
};

/// The full arena a PathModel inference entry point needs: MADE + deep-sets
/// workspaces plus the intermediate tensors that flow between them.
struct InferenceScratch {
  MadeScratch made;
  DeepSetsScratch deep_sets;
  Matrix context;  // deep-sets output fed to the MADE as conditioning input
  Matrix probs;    // predictive-distribution buffer
};

/// A mutex-guarded freelist of InferenceScratch arenas. Acquire() pops a
/// free arena (or creates one on first use); the returned Lease gives it
/// back on destruction. The lock is held only for the pop/push — never
/// across a forward pass — so N concurrent inference calls proceed on N
/// arenas with no serialization. At steady state the pool holds up to
/// kMaxIdle arenas, each already shaped for its model (PathModel owns one
/// pool per model, keyed by identity).
///
/// Bounded retention: arenas are ~batch x hidden floats each, so a server
/// hosting thousands of models must not let every pool keep its historic
/// peak concurrency forever. Release() retains at most kMaxIdle arenas;
/// leases beyond that cap still succeed (allocate-and-free), they just
/// don't pool.
class InferenceScratchPool {
 public:
  /// Retention cap. Generous for typical per-model concurrency (a handful
  /// of sessions) while bounding thousand-model deployments.
  static constexpr size_t kMaxIdle = 8;

  class Lease {
   public:
    Lease(InferenceScratchPool* pool, std::unique_ptr<InferenceScratch> s)
        : pool_(pool), scratch_(std::move(s)) {}
    ~Lease() {
      if (scratch_ != nullptr) pool_->Release(std::move(scratch_));
    }
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    InferenceScratch* operator->() { return scratch_.get(); }
    InferenceScratch& operator*() { return *scratch_; }
    InferenceScratch* get() { return scratch_.get(); }

   private:
    InferenceScratchPool* pool_;
    std::unique_ptr<InferenceScratch> scratch_;
  };

  Lease Acquire() {
    std::unique_ptr<InferenceScratch> s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++total_leases_;
      if (!free_.empty()) {
        s = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (s == nullptr) s = std::make_unique<InferenceScratch>();
    return Lease(this, std::move(s));
  }

  /// Number of idle arenas currently pooled (for tests/introspection).
  size_t idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

  /// Total Acquire() calls over the pool's lifetime.
  size_t total_leases() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_leases_;
  }
  /// Arenas released but not retained because the pool was at kMaxIdle.
  size_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  void Release(std::unique_ptr<InferenceScratch> s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() >= kMaxIdle) {
      ++dropped_;
      return;  // allocate-and-free beyond the cap; ~s frees it
    }
    free_.push_back(std::move(s));
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<InferenceScratch>> free_;
  size_t total_leases_ = 0;
  size_t dropped_ = 0;
};

}  // namespace restore

#endif  // RESTORE_NN_INFERENCE_SCRATCH_H_
