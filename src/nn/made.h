#ifndef RESTORE_NN_MADE_H_
#define RESTORE_NN_MADE_H_

#include <cstdint>
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
  /// pass an empty Matrix). Caches the activations Backward reads; the
  /// buffers are reused across calls.
  ///
  /// This is the TRAINING entry point: it uses the model's persistent member
  /// scratch, so it is single-threaded per model (the Db facade guarantees
  /// one trainer per model). Inference uses the const, scratch-taking
  /// SampleRange and PredictDistribution, whose values are bit-identical to
  /// slicing this function's logits.
  void Forward(const IntMatrix& codes, const Matrix& context, Matrix* logits);

  /// The training and evaluation loss: the sum over attributes in
  /// [first_attr, num_attrs) of each attribute's weighted cross-entropy.
  /// `weights` is [batch x num_attrs] with non-negative per-cell loss
  /// weights (0 masks a cell out, e.g. an unobserved tuple factor; all ones
  /// make each term the plain per-row mean). Each attribute's loss is
  /// normalized by its total weight. Writes the matching logits gradient
  /// into `dlogits`; pass nullptr for evaluation only.
  float NllLossWeighted(const Matrix& logits, const IntMatrix& targets,
                        size_t first_attr, const Matrix& weights,
                        Matrix* dlogits) const;

  /// Backpropagates from `dlogits` (accumulating parameter gradients).
  /// If the model is conditional, `*dcontext` receives the context gradient
  /// ([batch x context_dim]); pass nullptr when not needed.
  void Backward(const Matrix& dlogits, Matrix* dcontext);

  /// Samples the attribute range [first_attr, end_attr) in place,
  /// conditioned on the earlier columns of `codes` (and the context); the
  /// columns from end_attr on are never read. If `record_attr` is in
  /// range, the predictive distribution of that attribute is stored into
  /// `recorded` ([batch x vocab(record_attr)]). Reentrant: the model is
  /// read-only and every per-call buffer lives in `scratch`, so any number
  /// of threads can sample one model at once, each with its own scratch.
  /// FinalizeForInference() must have run after the last parameter update.
  ///
  /// Each hidden unit is computed at most once per call: a unit of degree
  /// d is final once attribute d is known, so the step that samples
  /// attribute a computes only the units of degree a-1 (the first step all
  /// of degree < first_attr) and then a's logit block.
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
  /// FinalizeForInference() precondition as SampleRange; computes only the
  /// hidden units of degree < attr and reads only the columns before attr.
  /// Row-local: a row's probabilities are bit-identical whatever other rows
  /// share its batch.
  void PredictDistribution(const IntMatrix& codes, const Matrix& context,
                           size_t attr, Matrix* probs,
                           MadeScratch* scratch) const;

  /// Freezes the current parameters for reentrant inference: refreshes the
  /// cached masked weights (W * M) of every masked layer and packs the
  /// per-degree and per-attribute panel tables the inference entry points
  /// read. Call once after training (or after loading parameters). The
  /// training Forward keeps refreshing its masked weights per call, so
  /// training never needs this.
  void FinalizeForInference();

  void CollectParams(std::vector<Param*>* params);

 private:
  Matrix BuildInputMask() const;
  Matrix BuildHiddenMask() const;
  Matrix BuildOutputMask() const;
  int HiddenDegree(size_t unit) const;

  /// Frozen weights of one unit-major panel (see UnitPanel): the output
  /// columns of one layer that share one set of unmasked inputs — the
  /// hidden units of one degree, or one attribute's logit block.
  struct PanelTable {
    std::vector<uint32_t> inputs;    // unmasked input rows, ascending
    std::vector<uint32_t> outputs;   // rows of the destination buffer
    std::vector<float> weights;      // [outputs x inputs]
    std::vector<float> bias;         // [outputs]
    std::vector<float> ctx_weights;  // [outputs x context_dim] (SSAR only)
    std::vector<float> ctx_bias;     // [outputs] (SSAR only)
  };

  /// Sizes the arena's unit-major buffers for `batch` rows and logit blocks
  /// of up to `vocab` columns. Grow-only: nothing is zero-filled, because
  /// a call writes every element before it reads it.
  void PrepareScratch(size_t batch, size_t vocab, MadeScratch* s) const;
  /// Transposes the context rows [lo, hi) into the unit-major s->context.
  void LoadContext(const Matrix& context, size_t lo, size_t hi,
                   MadeScratch* s) const;
  /// Computes, for rows [lo, hi), every hidden unit of degree in [d0, d1)
  /// in every layer; the units of lower degree must be final already. First
  /// gathers the embeddings of attributes [d0, d1), the only inputs those
  /// units read that lower degrees did not.
  void ComputeDegrees(const IntMatrix& codes, size_t d0, size_t d1,
                      size_t lo, size_t hi, MadeScratch* s) const;
  /// Computes attribute `attr`'s logit block for rows [lo, hi) into the
  /// unit-major s->logit_block ([vocab x ld]); needs the units of degree
  /// < attr.
  void ComputeLogits(size_t attr, size_t lo, size_t hi, MadeScratch* s) const;
  /// Runs one panel over rows [lo, hi): y = [relu](x · W + b [+ context
  /// term]) [+ residual], per element in the training Forward's order.
  void RunPanel(const PanelTable& t, const float* x, bool relu,
                const float* residual, float* y, size_t lo, size_t hi,
                MadeScratch* s) const;

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
  Matrix dprev_scratch_;       // Backward: gradient wrt a hidden layer input
  Matrix dx0_scratch_;         // Backward: gradient wrt the embedded input
  Matrix dctx_scratch_;        // Backward: per-layer context gradient
  bool has_context_ = false;

  // Inference tables, packed by FinalizeForInference.
  std::vector<std::vector<PanelTable>> hidden_panels_;  // [layer][degree]
  std::vector<PanelTable> logit_panels_;                // [attr]
  std::vector<uint32_t> identity_rows_;  // 0, 1, 2, ...: dense in/out rows
};

}  // namespace restore

#endif  // RESTORE_NN_MADE_H_
