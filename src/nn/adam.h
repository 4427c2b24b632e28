#ifndef RESTORE_NN_ADAM_H_
#define RESTORE_NN_ADAM_H_

#include <vector>

#include "nn/layers.h"

namespace restore {

/// Hyperparameters of AdamOptimizer.
struct AdamOptions {
  float learning_rate = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam optimizer (Kingma & Ba) over a fixed set of registered parameters.
class AdamOptimizer {
 public:
  using Options = AdamOptions;

  explicit AdamOptimizer(std::vector<Param*> params,
                         Options options = Options());

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  int64_t step_count() const { return t_; }

 private:
  /// A contiguous slice of one parameter's flattened storage. The update of
  /// every element is independent, so slices are precomputed once (fixed
  /// boundaries, independent of the thread count) and sharded across the
  /// pool on every Step — deterministic at any pool size.
  struct Slice {
    size_t param;
    size_t begin;
    size_t end;
  };

  std::vector<Param*> params_;
  Options options_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::vector<Slice> slices_;
  int64_t t_ = 0;
};

}  // namespace restore

#endif  // RESTORE_NN_ADAM_H_
