// TrustDDL's secure deep-learning engine: the Table-I layer types
// implemented over replicated secret shares (paper §III-C).
//
//  * Linear operations (dense / convolution matmuls) run through
//    SecMatMul-BT with dealer triples, followed by a fixed-point
//    rescale (local share truncation or masked opening, configurable).
//  * ReLU uses SecComp-BT: the sign of the activation is revealed to
//    the computing parties (as in the paper) and applied as a public
//    0/1 mask — which also serves the backward pass.
//  * Each layer pass lists the dealt keys it draws in one member
//    (forward_keys, backward_keys) and fetches them in one dealer
//    round trip (PassMaterial); SecureModel::step_keys composes the
//    same members into the plan a party sends ahead (DESIGN.md §10),
//    so the order material is consumed in is written once.
//    With reusable masks (SecureExecContext::reuse_masks) dense and
//    conv weights open W − B once per weight version, the conv opens
//    its raw input instead of its im2col expansion, comparisons use
//    comparison triples, and the first layer skips its unread input
//    gradient (DESIGN.md §"Reusable masks").
//  * Softmax (and its derivative) is outsourced to the model owner.
//  * Local transformations (im2col, reshapes, transposes) are applied
//    to each share component directly.
//
// All functions are SPMD across the three computing parties.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/owner_link.hpp"
#include "mpc/context.hpp"
#include "mpc/protocols_bt.hpp"
#include "mpc/triple_store.hpp"
#include "nn/model_zoo.hpp"

namespace trustddl::core {

/// How fixed-point products are rescaled (see mpc::TruncationMode).
using mpc::TruncationMode;

/// One rescaled product's material: its Beaver (or masked) entry and,
/// in masked-open mode, the truncation pair of its result.
struct ProductMaterial {
  mpc::BeaverTripleShare triple;
  std::optional<mpc::TruncPairShare> pair;
};

class PassMaterial;

/// Everything a secure layer needs at execution time.
struct SecureExecContext {
  mpc::PartyContext* mpc = nullptr;       ///< party-to-party protocols
  mpc::TripleStore* triples = nullptr;    ///< preprocessing material
  OwnerLink* owner = nullptr;             ///< Softmax outsourcing
  TruncationMode trunc_mode = TruncationMode::kLocal;
  /// Schedule data-independent openings within a layer/step through a
  /// shared mpc::OpenBatch so they travel in one round.  Off reproduces
  /// the pre-scheduler round structure (each protocol call flushes
  /// immediately) — reconstructed values are identical either way; only
  /// the number of round trips changes.
  bool batch_openings = true;
  /// Open each masked value once (EngineConfig::reuse_masks): dense
  /// and conv layers bind one dealer mask B to each weight version and
  /// open W − B once per version, the conv masks its raw input,
  /// comparisons use comparison triples, and the first layer skips its
  /// input gradient.  Results are bit-identical under masked-open
  /// truncation; only bytes, dealer round trips and dealing change.
  bool reuse_masks = true;

  /// Deferred rescale against `batch`, taking the pair add_trunc asked
  /// `material` for.  With kLocal truncation the result is ready
  /// immediately; with kMaskedOpen it resolves one flush later.
  mpc::DeferredShare rescale_prepare(mpc::OpenBatch& batch,
                                     const mpc::PartyShare& product,
                                     PassMaterial& material);

  /// Deferred matmul + rescale against `batch`; honours batch_openings
  /// by flushing eagerly when batching is off.
  mpc::DeferredShare matmul_rescaled_prepare(mpc::OpenBatch& batch,
                                             const mpc::PartyShare& x,
                                             const mpc::PartyShare& y,
                                             ProductMaterial material);
};

/// The dealt keys of layer passes, listed in the order the passes
/// fetch them.  A pass lists its keys here both to fetch them
/// (PassMaterial) and to be planned ahead (SecureModel::step_keys).
/// Beyond shapes, the keys depend on the context's truncation mode
/// and material path, the weight version dense and conv products use,
/// and whether this pass draws that version's masks.
class PassKeys {
 public:
  explicit PassKeys(const SecureExecContext& ctx, std::uint64_t version = 0,
                    bool draw_masks = false);

  bool reuse_masks() const { return reuse_masks_; }
  std::uint64_t version() const { return version_; }

  void add(const mpc::TripleKey& key) { keys_.push_back(key); }
  /// When this pass draws masks: the version's mask B of layer
  /// `layer`, a rows × cols weight.
  void add_mask(std::size_t layer, std::size_t rows, std::size_t cols);
  /// A product's entry, then add_trunc of its `result` shape.
  void add_product(const mpc::TripleKey& key, const Shape& result);
  /// In masked-open mode, the truncation pair of a rescale of `shape`.
  void add_trunc(const Shape& shape);
  /// One comparison's material on `shape` (mpc::comparison_keys: a
  /// comparison triple with reuse_masks).
  void add_comparison(const Shape& shape);

  const std::vector<mpc::TripleKey>& keys() const { return keys_; }

 protected:
  TruncationMode trunc_mode_;
  bool reuse_masks_;
  std::uint64_t version_;
  bool draw_masks_;
  std::vector<mpc::TripleKey> keys_;
};

/// The material one layer pass or parameter update consumes, fetched
/// in one dealer round trip: keys are added in consumption order,
/// fetched once, then taken back in the same order.
class PassMaterial final : public PassKeys {
 public:
  explicit PassMaterial(SecureExecContext& ctx, std::uint64_t version = 0,
                        bool draw_masks = false)
      : PassKeys(ctx, version, draw_masks), ctx_(ctx) {}

  void fetch();
  /// Arms `mask` from the entry add_mask asked for, when this pass
  /// draws masks.
  void take_mask(mpc::WeightMask& mask);
  ProductMaterial take_product();
  /// The pair add_trunc asked for; nullopt under local truncation.
  std::optional<mpc::TruncPairShare> take_trunc();
  mpc::ComparisonMaterial take_comparison();

 private:
  SecureExecContext& ctx_;
  std::vector<mpc::MaterialEntry> entries_;
  std::size_t next_ = 0;
};

/// A shared trainable parameter and its shared gradient accumulator.
struct SecureParameter {
  mpc::PartyShare value;
  mpc::PartyShare grad;

  explicit SecureParameter(mpc::PartyShare initial)
      : value(std::move(initial)), grad(mpc::zero_share(value.shape())) {}

  void zero_grad() { grad = mpc::zero_share(value.shape()); }
};

class SecureLayer {
 public:
  virtual ~SecureLayer() = default;
  virtual mpc::PartyShare forward(SecureExecContext& ctx,
                                  const mpc::PartyShare& input) = 0;
  /// Accumulates the parameter gradients and returns the input
  /// gradient; a layer with parameters returns an empty share instead
  /// when `input_grad` is false (its input gradient has no reader).
  virtual mpc::PartyShare backward(SecureExecContext& ctx,
                                   const mpc::PartyShare& grad_output,
                                   bool input_grad) = 0;
  /// Lists the keys forward() draws on an input of shape `input`, in
  /// the order it fetches them; returns the output's shape.
  virtual Shape forward_keys(PassKeys& /*keys*/, const Shape& input) const {
    return input;
  }
  /// Lists the keys backward() draws after a forward pass on `rows`
  /// rows, in the order it fetches them.
  virtual void backward_keys(PassKeys& /*keys*/, std::size_t /*rows*/,
                             bool /*input_grad*/) const {}
  virtual std::vector<SecureParameter*> parameters() { return {}; }
  /// The model's parameters now hold weight version `version`.
  virtual void set_weight_version(std::uint64_t /*version*/) {}
};

/// Fully connected layer on shares: y = xW + b.  With reusable masks,
/// products against W (forward x·W, backward dY·Wᵀ) consume
/// masked-matmul entries bound to the current version's mask.
class SecureDense final : public SecureLayer {
 public:
  /// `layer` is the layer's index in its model: with the weight
  /// version it names the dealer's mask stream.
  SecureDense(mpc::PartyShare weights, mpc::PartyShare bias,
              std::size_t layer = 0)
      : layer_(layer), weights_(std::move(weights)), bias_(std::move(bias)) {}

  mpc::PartyShare forward(SecureExecContext& ctx,
                          const mpc::PartyShare& input) override;
  mpc::PartyShare backward(SecureExecContext& ctx,
                           const mpc::PartyShare& grad_output,
                           bool input_grad) override;
  Shape forward_keys(PassKeys& keys, const Shape& input) const override;
  void backward_keys(PassKeys& keys, std::size_t rows,
                     bool input_grad) const override;
  std::vector<SecureParameter*> parameters() override {
    return {&weights_, &bias_};
  }
  void set_weight_version(std::uint64_t version) override;

 private:
  /// The key of an [rows, ·] product against W (Wᵀ when `transposed`):
  /// a masked-matmul entry of the keys' version with reuse_masks, a
  /// Beaver triple otherwise.
  mpc::TripleKey product_key(const PassKeys& keys, std::size_t rows,
                             bool transposed) const;
  /// Deferred x·W (x·Wᵀ when `transposed`) + rescale against the
  /// current version's mask, from the material of product_key; honours
  /// batch_openings like matmul_rescaled_prepare.
  mpc::DeferredShare weight_product_prepare(SecureExecContext& ctx,
                                            mpc::OpenBatch& batch,
                                            const mpc::PartyShare& x,
                                            bool transposed,
                                            PassMaterial& material);

  std::size_t layer_;
  SecureParameter weights_;
  SecureParameter bias_;
  mpc::PartyShare cached_input_;
  std::uint64_t version_ = 0;
  mpc::WeightMask mask_;
};

/// Convolution on shares via share-local im2col + SecMatMul-BT.  With
/// reusable masks the forward product consumes a masked-conv entry
/// bound to the current version's mask and opens x − a_x on the raw
/// input; the backward pass uses the cached columns as before.
class SecureConv final : public SecureLayer {
 public:
  /// `layer` names the dealer's mask stream, as for SecureDense.
  SecureConv(const ConvSpec& spec, mpc::PartyShare weights,
             mpc::PartyShare bias, std::size_t layer = 0)
      : spec_(spec),
        layer_(layer),
        weights_(std::move(weights)),
        bias_(std::move(bias)) {}

  mpc::PartyShare forward(SecureExecContext& ctx,
                          const mpc::PartyShare& input) override;
  mpc::PartyShare backward(SecureExecContext& ctx,
                           const mpc::PartyShare& grad_output,
                           bool input_grad) override;
  Shape forward_keys(PassKeys& keys, const Shape& input) const override;
  void backward_keys(PassKeys& keys, std::size_t rows,
                     bool input_grad) const override;
  std::vector<SecureParameter*> parameters() override {
    return {&weights_, &bias_};
  }
  void set_weight_version(std::uint64_t version) override;

 private:
  ConvSpec spec_;
  std::size_t layer_;
  SecureParameter weights_;  ///< [out_channels, in_channels*kh*kw]
  SecureParameter bias_;     ///< [out_channels]
  mpc::PartyShare cached_columns_;  ///< [k, batch*outPixels]
  std::size_t cached_batch_ = 0;
  std::uint64_t version_ = 0;
  mpc::WeightMask mask_;
};

/// ReLU via SecComp-BT; the public sign mask is cached for backward.
class SecureRelu final : public SecureLayer {
 public:
  mpc::PartyShare forward(SecureExecContext& ctx,
                          const mpc::PartyShare& input) override;
  mpc::PartyShare backward(SecureExecContext& ctx,
                           const mpc::PartyShare& grad_output,
                           bool input_grad) override;
  Shape forward_keys(PassKeys& keys, const Shape& input) const override;

 private:
  RingTensor cached_mask_;
};

/// 2-D max pooling via a tournament of SecComp-BT comparisons
/// (extension beyond the paper's Table I network).  Each comparison
/// ranks one pair of window slots across the whole [batch, pools]
/// candidate shape; the revealed sign masks select winners locally
/// and determine the (public) argmax routing for backward — the same
/// public-mask pattern the paper uses for ReLU.
class SecureMaxPool final : public SecureLayer {
 public:
  explicit SecureMaxPool(const nn::PoolSpec& spec) : spec_(spec) {}

  mpc::PartyShare forward(SecureExecContext& ctx,
                          const mpc::PartyShare& input) override;
  mpc::PartyShare backward(SecureExecContext& ctx,
                           const mpc::PartyShare& grad_output,
                           bool input_grad) override;
  Shape forward_keys(PassKeys& keys, const Shape& input) const override;

 private:
  nn::PoolSpec spec_;
  /// Public flat input index of each output's argmax, per sample.
  std::vector<std::vector<std::size_t>> cached_argmax_;
  std::size_t cached_batch_ = 0;
};

/// Softmax outsourced to the model owner (§III-C).
class SecureSoftmax final : public SecureLayer {
 public:
  mpc::PartyShare forward(SecureExecContext& ctx,
                          const mpc::PartyShare& input) override;
  mpc::PartyShare backward(SecureExecContext& ctx,
                           const mpc::PartyShare& grad_output,
                           bool input_grad) override;

  const mpc::PartyShare& cached_probabilities() const {
    return cached_probabilities_;
  }

 private:
  mpc::PartyShare cached_probabilities_;
};

/// One computing party's view of the secured model.
class SecureModel {
 public:
  /// Build from a spec and this party's shares of the parameters, in
  /// the same order as nn::Sequential::parameters() (conv/dense: W
  /// then b).
  SecureModel(const nn::ModelSpec& spec,
              std::vector<mpc::PartyShare> parameter_shares);

  /// Full forward pass (ends with outsourced Softmax); returns shares
  /// of the class probabilities.
  mpc::PartyShare forward(SecureExecContext& ctx,
                          const mpc::PartyShare& input);

  /// Backward pass from the fused softmax+cross-entropy gradient
  /// (p - y), which is w.r.t. the logits, so the softmax layer is
  /// skipped — mirroring nn::Sequential::train_step.  With reuse_masks
  /// the first layer does not form its (unread) input gradient.
  void backward_from_logit_grad(SecureExecContext& ctx,
                                const mpc::PartyShare& grad_logits);

  /// SGD update W -= lr * dW on shares; lr is public.  Advances the
  /// weight version.
  void sgd_step(SecureExecContext& ctx, double learning_rate,
                int frac_bits);

  /// The keys each pass lists (SecureLayer::forward_keys,
  /// backward_keys), composed in the order the passes above fetch
  /// them.  `keys` carries the weight version the products use and
  /// whether the forward pass draws that version's masks.
  /// forward_keys chains the layers' shapes from `input` and returns
  /// the probabilities' shape; backward_keys follows a forward pass on
  /// `rows` rows; sgd_keys lists the update's rescales.
  Shape forward_keys(PassKeys& keys, const Shape& input) const;
  void backward_keys(PassKeys& keys, std::size_t rows) const;
  void sgd_keys(PassKeys& keys) const;

  /// What a party plans for one step on `input`: forward_keys, and when
  /// `training` backward_keys and sgd_keys, with the products at weight
  /// version `version` and the version's masks drawn when `draw_masks`.
  std::vector<mpc::TripleKey> step_keys(const SecureExecContext& ctx,
                                        const Shape& input,
                                        std::uint64_t version,
                                        bool draw_masks, bool training) const;

  /// Version of the current parameter values: 0 for the shares the
  /// model was built from, +1 per sgd_step.  Each version gets fresh
  /// reusable weight masks, so under one dealer seed a version must
  /// never name two different weight values — a service resuming from
  /// a checkpoint sets the version it checkpointed at.
  std::uint64_t weight_version() const { return weight_version_; }
  void set_weight_version(std::uint64_t version);

  std::vector<SecureParameter*> parameters();
  void zero_grads();

 private:
  /// Whether layer `index`'s backward pass forms its input gradient:
  /// with reusable masks nothing reads the first layer's.
  static bool input_grad(std::size_t index, bool reuse_masks) {
    return index > 0 || !reuse_masks;
  }

  std::vector<std::unique_ptr<SecureLayer>> layers_;
  std::uint64_t weight_version_ = 0;
};

/// Helpers shared with the engine.

/// Add a shared bias row to every row of a shared matrix.
void add_row_broadcast(mpc::PartyShare& matrix, const mpc::PartyShare& bias);

/// Add a shared per-row bias (column broadcast): bias[r] added to
/// every column of row r.
void add_col_broadcast(mpc::PartyShare& matrix, const mpc::PartyShare& bias);

}  // namespace trustddl::core
