#ifndef RESTORE_NN_MADE_H_
#define RESTORE_NN_MADE_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/inference_scratch.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace restore {

/// Configuration of a MADE (Masked Autoencoder for Distribution Estimation)
/// network over a fixed attribute ordering.
struct MadeConfig {
  /// Vocabulary size of each attribute, in autoregressive order.
  std::vector<int> vocab_sizes;
  /// Dimensionality of the per-attribute input embeddings.
  size_t embed_dim = 16;
  /// Width of the hidden layers.
  size_t hidden_dim = 64;
  /// Number of hidden layers (>= 1). Layers 2..n use residual connections.
  size_t num_layers = 2;
  /// Dimensionality of the conditioning context vector (0 = unconditional).
  /// The context bypasses the autoregressive masks: it is visible to every
  /// output. SSAR models feed their tree embedding through this input.
  size_t context_dim = 0;
};

/// MADE with per-attribute embeddings (the architecture of [14]/naru [40]
/// that the paper builds its completion models on): the network maps a batch
/// of discretized attribute rows to, for each attribute i, the logits of the
/// conditional distribution p(a_i | a_<i [, context]).
///
/// Masking scheme: input units of attribute i carry degree i; hidden units
/// carry degrees cycling over [0, n-2]; a connection into a hidden unit
/// requires to_degree >= from_degree, and into the output block of attribute
/// i requires degree < i. The first attribute's output therefore depends only
/// on the bias and the context, as required.
class MadeModel {
 public:
  MadeModel(MadeConfig config, Rng& rng);

  const MadeConfig& config() const { return config_; }
  size_t num_attrs() const { return config_.vocab_sizes.size(); }
  int vocab_size(size_t attr) const { return config_.vocab_sizes[attr]; }
  /// Column offset of attribute `attr`'s logits block.
  size_t attr_offset(size_t attr) const { return offsets_[attr]; }
  size_t total_vocab() const { return offsets_.back(); }

  /// Computes logits [batch x total_vocab] for all attributes.
  /// `context` must be [batch x context_dim] (ignored when context_dim == 0;
  /// pass an empty Matrix). Caches activations for Backward unless
  /// `for_backward` is false (inference-only passes skip the input
  /// snapshots). Activation buffers are reused across calls.
  ///
  /// This is the TRAINING entry point: it uses the model's persistent member
  /// scratch, so it is single-threaded per model (the Db facade guarantees
  /// one trainer per model). Inference uses the const, scratch-taking entry
  /// points below.
  void Forward(const IntMatrix& codes, const Matrix& context, Matrix* logits,
               bool for_backward = true);

  /// Reentrant inference forward: all per-call buffers live in `scratch`,
  /// the model is read-only, so any number of threads can run concurrent
  /// passes over one model — each with its own scratch. Requires
  /// FinalizeForInference() after the last parameter update. Produces
  /// bit-identical logits to the training Forward.
  void Forward(const IntMatrix& codes, const Matrix& context, Matrix* logits,
               MadeScratch* scratch) const;

  /// Mean (over batch) of the summed per-attribute cross-entropies for
  /// attributes in [first_attr, num_attrs). Writes the matching logits
  /// gradient into `dlogits`.
  float NllLoss(const Matrix& logits, const IntMatrix& targets,
                size_t first_attr, Matrix* dlogits) const;

  /// Loss-only variant (no gradient) used for test-set evaluation.
  float NllLossOnly(const Matrix& logits, const IntMatrix& targets,
                    size_t first_attr) const;

  /// Weighted variant: `weights` is [batch x num_attrs] with non-negative
  /// per-cell loss weights (0 masks a cell out, e.g. unobserved tuple
  /// factors). Each attribute's loss is normalized by its total weight.
  /// Pass dlogits == nullptr for evaluation only.
  float NllLossWeighted(const Matrix& logits, const IntMatrix& targets,
                        size_t first_attr, const Matrix& weights,
                        Matrix* dlogits) const;

  /// Loss of a single attribute (mean over batch); used for per-attribute
  /// diagnostics. No gradient.
  float AttrNll(const Matrix& logits, const IntMatrix& targets,
                size_t attr) const;

  /// Backpropagates from `dlogits` (accumulating parameter gradients).
  /// If the model is conditional, `*dcontext` receives the context gradient
  /// ([batch x context_dim]); pass nullptr when not needed.
  void Backward(const Matrix& dlogits, Matrix* dcontext);

  /// Samples the attribute range [first_attr, end_attr) in place,
  /// conditioned on the earlier columns of `codes` (and the context). If
  /// `record_attr` is in range, the predictive distribution of that
  /// attribute is stored into `recorded` ([batch x vocab(record_attr)]).
  /// Reentrant (see the scratch Forward): every per-call buffer lives in
  /// `scratch`, and FinalizeForInference() must have run after the last
  /// parameter update.
  ///
  /// `should_stop` is the cooperative cancellation hook: it is evaluated
  /// once per attribute (one attribute's pass over the batch is one
  /// "sampling batch"), on the calling thread, BEFORE the attribute's
  /// forward pass and rng draws. When it returns true, sampling stops and
  /// the remaining attribute codes are left unspecified — the caller aborts
  /// the whole completion. When it never fires, the sampled codes and the
  /// rng consumption are bit-identical to a call without the hook.
  void SampleRange(IntMatrix* codes, const Matrix& context, size_t first_attr,
                   size_t end_attr, Rng& rng, int record_attr,
                   Matrix* recorded, MadeScratch* scratch,
                   const std::function<bool()>& should_stop = {}) const;

  /// Predictive distribution of a single attribute given its predecessors:
  /// fills `probs` [batch x vocab(attr)]. Reentrant, with the same
  /// FinalizeForInference() precondition as SampleRange. Row-local: a row's
  /// probabilities are bit-identical whatever other rows share its batch.
  void PredictDistribution(const IntMatrix& codes, const Matrix& context,
                           size_t attr, Matrix* probs,
                           MadeScratch* scratch) const;

  /// Freezes the current parameters for reentrant inference: refreshes the
  /// cached masked weights (W * M) of every masked layer. Call once after
  /// training (or after loading parameters); the const inference entry
  /// points read those caches without refreshing them. The training Forward
  /// keeps refreshing per call, so training never needs this.
  void FinalizeForInference();

  void CollectParams(std::vector<Param*>* params);

  /// Number of scalar parameters (for reporting / Fig 11 context).
  size_t NumParameters();

 private:
  Matrix BuildInputMask() const;
  Matrix BuildHiddenMask() const;
  Matrix BuildOutputMask() const;
  int HiddenDegree(size_t unit) const;

  /// Embeds + runs all hidden layers into `scratch`; returns the final
  /// hidden activation. Shared trunk of the const Forward and the sliced
  /// logits path (value-identical to the training Forward; the context-free
  /// path fuses bias/relu/residual into the GEMM store phase).
  /// `changed_attr` >= 0 re-gathers only that attribute's embedding block —
  /// valid only when scratch->x0 already embeds `codes` with at most that
  /// column changed (the SampleRange loop invariant).
  const Matrix* ForwardTrunk(const IntMatrix& codes, const Matrix& context,
                             MadeScratch* scratch,
                             int changed_attr = -1) const;
  /// Computes ONLY columns [offsets_[attr], offsets_[attr+1]) of the logits
  /// buffer ([batch x total_vocab]; other columns are left untouched). The
  /// sampling path: bit-identical to slicing a full Forward.
  /// `changed_attr` forwards to ForwardTrunk (same invariant).
  void ForwardLogitsSlice(const IntMatrix& codes, const Matrix& context,
                          size_t attr, int changed_attr, Matrix* logits,
                          MadeScratch* scratch) const;

  MadeConfig config_;
  std::vector<size_t> offsets_;  // prefix sums of vocab sizes (n+1 entries)

  EmbeddingSet embed_;
  std::vector<MaskedDense> hidden_;  // num_layers masked layers
  std::vector<Dense> ctx_hidden_;    // per-layer context projections
  MaskedDense out_;
  Dense ctx_out_;

  // Cached activations. The buffers persist across Forward calls (shapes are
  // stable within a training run), so steady-state forward/backward passes
  // allocate nothing. h_[0] is unused: layer 0 has no residual input, its
  // post-activation IS relu_[0].
  Matrix x0_;                  // embedded input
  std::vector<Matrix> relu_;   // relu(z_l) per layer
  std::vector<Matrix> h_;      // post-residual activation per layer (l >= 1)
  Matrix ctx_scratch_;         // Forward: per-layer context projection
  Matrix ctx_out_scratch_;     // Forward: output-layer context projection
  Matrix dh_scratch_;          // Backward: gradient wrt h_[l]
  Matrix dz_scratch_;          // Backward: gradient through the ReLU branch
  Matrix dprev_scratch_;       // Backward: gradient wrt the layer input
  Matrix dctx_scratch_;        // Backward: per-layer context gradient
  bool has_context_ = false;
};

}  // namespace restore

#endif  // RESTORE_NN_MADE_H_
