#include "nn/model_zoo.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/layers.hpp"

namespace trustddl::nn {

ModelSpec mnist_cnn_spec() {
  ModelSpec spec;
  spec.name = "mnist_cnn (paper Table I)";
  spec.input_features = 28 * 28;
  spec.classes = 10;
  ConvSpec conv;
  conv.in_channels = 1;
  conv.in_height = 28;
  conv.in_width = 28;
  conv.out_channels = 5;
  conv.kernel_h = 5;
  conv.kernel_w = 5;
  conv.pad = 2;
  conv.stride = 2;  // (28x28) -> (14x14x5) = 980 features
  spec.layers = {
      LayerSpec::make_conv(conv),     LayerSpec::make_relu(),
      LayerSpec::make_dense(980, 100), LayerSpec::make_relu(),
      LayerSpec::make_dense(100, 10),  LayerSpec::make_softmax(),
  };
  validate_spec(spec);
  return spec;
}

ModelSpec mnist_mlp_spec() {
  ModelSpec spec;
  spec.name = "mnist_mlp";
  spec.input_features = 28 * 28;
  spec.classes = 10;
  spec.layers = {
      LayerSpec::make_dense(784, 64), LayerSpec::make_relu(),
      LayerSpec::make_dense(64, 10),  LayerSpec::make_softmax(),
  };
  validate_spec(spec);
  return spec;
}

ModelSpec mnist_cnn_pool_spec() {
  ModelSpec spec;
  spec.name = "mnist_cnn_pool";
  spec.input_features = 28 * 28;
  spec.classes = 10;
  ConvSpec conv;
  conv.in_channels = 1;
  conv.in_height = 28;
  conv.in_width = 28;
  conv.out_channels = 5;
  conv.kernel_h = 5;
  conv.kernel_w = 5;
  conv.pad = 2;
  conv.stride = 1;  // (28x28) -> (28x28x5)
  PoolSpec pool;
  pool.channels = 5;
  pool.in_height = 28;
  pool.in_width = 28;
  pool.window = 2;  // -> (14x14x5) = 980
  spec.layers = {
      LayerSpec::make_conv(conv),      LayerSpec::make_relu(),
      LayerSpec::make_maxpool(pool),   LayerSpec::make_dense(980, 100),
      LayerSpec::make_relu(),          LayerSpec::make_dense(100, 10),
      LayerSpec::make_softmax(),
  };
  validate_spec(spec);
  return spec;
}

ModelSpec tiny_cnn_spec() {
  ModelSpec spec;
  spec.name = "tiny_cnn";
  spec.input_features = 12 * 12;
  spec.classes = 4;
  ConvSpec conv;
  conv.in_channels = 1;
  conv.in_height = 12;
  conv.in_width = 12;
  conv.out_channels = 2;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.pad = 1;
  conv.stride = 2;  // (12x12) -> (6x6x2) = 72 features
  spec.layers = {
      LayerSpec::make_conv(conv),    LayerSpec::make_relu(),
      LayerSpec::make_dense(72, 16), LayerSpec::make_relu(),
      LayerSpec::make_dense(16, 4),  LayerSpec::make_softmax(),
  };
  validate_spec(spec);
  return spec;
}

InputGeometry input_geometry(const ModelSpec& spec) {
  for (const LayerSpec& layer : spec.layers) {
    if (layer.kind == LayerSpec::Kind::kConv) {
      return {layer.conv.in_height, layer.conv.in_width};
    }
    if (layer.kind == LayerSpec::Kind::kDense) {
      break;
    }
  }
  // Dense-first: any factoring works; pick the squarest.
  for (std::size_t h = static_cast<std::size_t>(
           std::sqrt(static_cast<double>(spec.input_features)));
       h > 1; --h) {
    if (spec.input_features % h == 0) {
      return {h, spec.input_features / h};
    }
  }
  return {1, spec.input_features};
}

Sequential build_model(const ModelSpec& spec, Rng& rng) {
  validate_spec(spec);
  Sequential model;
  for (const LayerSpec& layer : spec.layers) {
    switch (layer.kind) {
      case LayerSpec::Kind::kConv:
        model.add(std::make_unique<ConvLayer>(layer.conv, rng));
        break;
      case LayerSpec::Kind::kDense:
        model.add(std::make_unique<DenseLayer>(layer.in, layer.out, rng));
        break;
      case LayerSpec::Kind::kRelu:
        model.add(std::make_unique<ReluLayer>());
        break;
      case LayerSpec::Kind::kSoftmax:
        model.add(std::make_unique<SoftmaxLayer>());
        break;
      case LayerSpec::Kind::kMaxPool:
        model.add(std::make_unique<MaxPoolLayer>(layer.pool));
        break;
    }
  }
  return model;
}

std::vector<Shape> parameter_shapes(const ModelSpec& spec) {
  std::vector<Shape> shapes;
  for (const LayerSpec& layer : spec.layers) {
    if (layer.kind == LayerSpec::Kind::kDense) {
      shapes.push_back(Shape{layer.in, layer.out});
      shapes.push_back(Shape{1, layer.out});
    } else if (layer.kind == LayerSpec::Kind::kConv) {
      shapes.push_back(Shape{layer.conv.out_channels, layer.conv.col_rows()});
      shapes.push_back(Shape{layer.conv.out_channels});
    }
  }
  return shapes;
}

void validate_spec(const ModelSpec& spec) {
  TRUSTDDL_REQUIRE(!spec.layers.empty(), "model spec has no layers");
  std::size_t features = spec.input_features;
  for (const LayerSpec& layer : spec.layers) {
    switch (layer.kind) {
      case LayerSpec::Kind::kConv: {
        const std::size_t expected = layer.conv.in_channels *
                                     layer.conv.in_height *
                                     layer.conv.in_width;
        TRUSTDDL_REQUIRE(features == expected,
                         "conv layer input features mismatch: expected " +
                             std::to_string(expected) + ", got " +
                             std::to_string(features));
        features = layer.conv.out_channels * layer.conv.out_height() *
                   layer.conv.out_width();
        break;
      }
      case LayerSpec::Kind::kDense:
        TRUSTDDL_REQUIRE(features == layer.in,
                         "dense layer input features mismatch: expected " +
                             std::to_string(layer.in) + ", got " +
                             std::to_string(features));
        features = layer.out;
        break;
      case LayerSpec::Kind::kMaxPool:
        TRUSTDDL_REQUIRE(features == layer.pool.in_features(),
                         "maxpool layer input features mismatch");
        TRUSTDDL_REQUIRE(layer.pool.in_height % layer.pool.window == 0 &&
                             layer.pool.in_width % layer.pool.window == 0,
                         "maxpool window must tile the input");
        features = layer.pool.out_features();
        break;
      case LayerSpec::Kind::kRelu:
      case LayerSpec::Kind::kSoftmax:
        break;
    }
  }
  TRUSTDDL_REQUIRE(features == spec.classes,
                   "model output features do not match class count");
  TRUSTDDL_REQUIRE(spec.layers.back().kind == LayerSpec::Kind::kSoftmax,
                   "classification models must end in Softmax");
}

}  // namespace trustddl::nn
