// Backend-independent model specifications and factories.
//
// The same ModelSpec drives both the plaintext Sequential (CML) and
// the secure TrustDDL engine, so Fig. 2 compares identical
// architectures.  mnist_cnn_spec() is the paper's Table I network.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "nn/layers.hpp"
#include "numeric/conv.hpp"

namespace trustddl::nn {

struct LayerSpec {
  enum class Kind { kConv, kDense, kRelu, kSoftmax, kMaxPool };
  Kind kind = Kind::kRelu;
  ConvSpec conv;            ///< for kConv
  PoolSpec pool;            ///< for kMaxPool
  std::size_t in = 0;       ///< for kDense
  std::size_t out = 0;      ///< for kDense

  static LayerSpec make_conv(const ConvSpec& spec) {
    LayerSpec layer;
    layer.kind = Kind::kConv;
    layer.conv = spec;
    return layer;
  }
  static LayerSpec make_dense(std::size_t in, std::size_t out) {
    LayerSpec layer;
    layer.kind = Kind::kDense;
    layer.in = in;
    layer.out = out;
    return layer;
  }
  static LayerSpec make_relu() { return LayerSpec{}; }
  static LayerSpec make_softmax() {
    LayerSpec layer;
    layer.kind = Kind::kSoftmax;
    return layer;
  }
  static LayerSpec make_maxpool(const PoolSpec& spec) {
    LayerSpec layer;
    layer.kind = Kind::kMaxPool;
    layer.pool = spec;
    return layer;
  }
};

struct ModelSpec {
  std::string name;
  std::vector<LayerSpec> layers;
  std::size_t input_features = 0;
  std::size_t classes = 0;
};

/// The paper's Table I network:
///   Conv (28x28) -> (14x14x5), kernel 5x5, pad 2, 5 channels
///   ReLU(980) -> FC 980->100 -> ReLU(100) -> FC 100->10 -> Softmax.
ModelSpec mnist_cnn_spec();

/// A smaller MLP (784 -> 64 -> 10) for fast tests and examples.
ModelSpec mnist_mlp_spec();

/// A pooled variant of the Table I network (extension beyond the
/// paper): Conv 5x5 pad 2 stride 1 -> ReLU -> MaxPool 2x2 -> FC
/// 980->100 -> ReLU -> FC 100->10 -> Softmax.  Max pooling runs on
/// SecComp-BT comparisons in the secure engine.
ModelSpec mnist_cnn_pool_spec();

/// A down-scaled CNN (12x12 input) for integration tests where the
/// full Table I network would be too slow under MPC.
ModelSpec tiny_cnn_spec();

/// The image shape a spec's input rows must have.  Conv-first models
/// pin the exact height x width; dense-first models only need
/// height * width == input_features, reported as the squarest
/// factoring (784 -> 28x28).  Drives the synthetic-data generator so
/// CLIs produce queries matching any --model, not just the 28x28
/// default.
struct InputGeometry {
  std::size_t height = 0;
  std::size_t width = 0;
};
InputGeometry input_geometry(const ModelSpec& spec);

/// Instantiate the plaintext model with the paper's initialization
/// (dense: N(0,1/n); conv: N(0,1/(kh*kw))).
Sequential build_model(const ModelSpec& spec, Rng& rng);

/// Validate that consecutive layer shapes agree; throws on mismatch.
void validate_spec(const ModelSpec& spec);

/// Shapes of the spec's parameters in Sequential::parameters() order:
/// per conv layer W [out_channels, in_channels·kh·kw] then b
/// [out_channels]; per dense layer W [in, out] then b [1, out].
std::vector<Shape> parameter_shapes(const ModelSpec& spec);

}  // namespace trustddl::nn
