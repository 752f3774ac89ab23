#include "src/ts/nn_forecasters.h"

#include <tuple>

#include "src/core/metrics.h"
#include "src/nn/conv1d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/loss.h"
#include "src/nn/lstm.h"
#include "src/nn/optimizer.h"
#include "src/nn/slice.h"
#include "src/nn/trainer.h"
#include "src/obs/obs.h"

namespace coda::ts {
namespace {

// Derives (seq_len, channels) for temporal models from the flattened row
// width and the n_vars parameter.
std::pair<std::size_t, std::size_t> sequence_shape(std::size_t in_features,
                                                   std::int64_t n_vars_param,
                                                   const std::string& who) {
  const auto channels = static_cast<std::size_t>(n_vars_param);
  require(channels >= 1, who + ": n_vars must be >= 1");
  require(in_features % channels == 0,
          who + ": input width " + std::to_string(in_features) +
              " is not a multiple of n_vars " + std::to_string(channels));
  return {in_features / channels, channels};
}

}  // namespace

NeuralForecaster::NeuralForecaster(std::string name)
    : Estimator(std::move(name)) {
  declare_param("epochs", std::int64_t{40});
  declare_param("batch_size", std::int64_t{32});
  declare_param("learning_rate", 1e-3);
  declare_param("dropout", 0.1);
  declare_param("seed", std::int64_t{42});
}

void NeuralForecaster::fit(const Matrix& X, const std::vector<double>& y) {
  require(X.rows() == y.size(), name() + ": X/y size mismatch");
  require(X.rows() > 0, name() + ": empty input");

  // Everything before nn.train — the target scaling, the network build and
  // dropping the previous fit's network — is its own child of
  // eval.fold.fit, so the fit's children account for its time.
  obs::Region setup(obs::region_id<"nn.setup">());
  std::tie(y_mean_, y_scale_) = mean_stddev(y);
  if (y_scale_ == 0.0) y_scale_ = 1.0;
  std::vector<double> scaled(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    scaled[i] = (y[i] - y_mean_) / y_scale_;
  }

  net_ = build_network(X.cols());
  nn::TrainConfig train_cfg;
  train_cfg.epochs = static_cast<std::size_t>(params().get_int("epochs"));
  train_cfg.batch_size =
      static_cast<std::size_t>(params().get_int("batch_size"));
  train_cfg.shuffle_seed = seed();
  nn::MseLoss loss;
  nn::Adam optimizer(params().get_double("learning_rate"));
  const Matrix target = nn::column_matrix(scaled);
  setup.stop();
  nn::train(net_, X, target, loss, optimizer, train_cfg);
  fitted_ = true;
}

std::vector<double> NeuralForecaster::predict(const Matrix& X) const {
  require_state(fitted_, name() + ": call fit() first");
  nn::Sequential net = net_;  // forward mutates caches; keep predict const
  const Matrix out = net.forward(X, /*training=*/false);
  std::vector<double> pred(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    pred[i] = out(i, 0) * y_scale_ + y_mean_;
  }
  return pred;
}

nn::Sequential DnnForecaster::build_network(std::size_t in_features) const {
  const std::string& arch = params().get_string("arch");
  require(arch == "simple" || arch == "deep",
          "DnnForecaster: arch must be 'simple' or 'deep'");
  const auto hidden = static_cast<std::size_t>(params().get_int("hidden"));
  const std::size_t n_hidden = arch == "simple" ? 2 : 4;

  // Hidden activations fuse into the Dense GEMM epilogues; seeds unchanged.
  nn::Sequential net;
  std::size_t width = in_features;
  for (std::size_t l = 0; l < n_hidden; ++l) {
    net.emplace<nn::Dense>(width, hidden, seed() + l,
                           kernels::Activation::kRelu);
    if (dropout_rate() > 0.0) {
      net.emplace<nn::Dropout>(dropout_rate(), seed() + 100 + l);
    }
    width = hidden;
  }
  net.emplace<nn::Dense>(width, std::size_t{1}, seed() + 999);
  return net;
}

nn::Sequential LstmForecaster::build_network(std::size_t in_features) const {
  const std::string& arch = params().get_string("arch");
  require(arch == "simple" || arch == "deep",
          "LstmForecaster: arch must be 'simple' or 'deep'");
  const auto hidden = static_cast<std::size_t>(params().get_int("hidden"));
  const auto [seq_len, channels] =
      sequence_shape(in_features, params().get_int("n_vars"), "lstm");
  (void)seq_len;
  const std::size_t n_layers = arch == "simple" ? 1 : 4;

  nn::Sequential net;
  std::size_t width = channels;
  for (std::size_t l = 0; l < n_layers; ++l) {
    const bool return_sequences = l + 1 < n_layers;
    net.emplace<nn::Lstm>(width, hidden, return_sequences, seed() + l);
    if (dropout_rate() > 0.0) {
      net.emplace<nn::Dropout>(dropout_rate(), seed() + 100 + l);
    }
    width = hidden;
  }
  net.emplace<nn::Dense>(hidden, std::size_t{1}, seed() + 999);
  return net;
}

nn::Sequential CnnForecaster::build_network(std::size_t in_features) const {
  const std::string& arch = params().get_string("arch");
  require(arch == "simple" || arch == "deep",
          "CnnForecaster: arch must be 'simple' or 'deep'");
  const auto filters = static_cast<std::size_t>(params().get_int("filters"));
  const auto kernel = static_cast<std::size_t>(params().get_int("kernel"));
  const auto hidden = static_cast<std::size_t>(params().get_int("hidden"));
  const auto [seq_len, channels] =
      sequence_shape(in_features, params().get_int("n_vars"), "cnn");
  const std::size_t blocks = arch == "simple" ? 1 : 2;

  nn::Sequential net;
  std::size_t length = seq_len;
  std::size_t width = channels;
  for (std::size_t b = 0; b < blocks; ++b) {
    net.emplace<nn::Conv1D>(width, filters, kernel, /*dilation=*/1,
                            /*causal=*/true, seed() + b,
                            kernels::Activation::kRelu);
    if (length >= 2) {
      net.emplace<nn::MaxPool1D>(filters, std::size_t{2});
      length /= 2;
    }
    width = filters;
  }
  require(length >= 1, "CnnForecaster: sequence pooled away");
  net.emplace<nn::Dense>(length * filters, hidden, seed() + 500,
                         kernels::Activation::kRelu);
  if (dropout_rate() > 0.0) {
    net.emplace<nn::Dropout>(dropout_rate(), seed() + 600);
  }
  net.emplace<nn::Dense>(hidden, std::size_t{1}, seed() + 999);
  return net;
}

nn::Sequential WaveNetForecaster::build_network(
    std::size_t in_features) const {
  const auto filters = static_cast<std::size_t>(params().get_int("filters"));
  const auto [seq_len, channels] =
      sequence_shape(in_features, params().get_int("n_vars"), "wavenet");

  nn::Sequential net;
  std::size_t width = channels;
  // Dilations 1, 2, 4, ... while the kernel span fits in the history.
  std::size_t layer = 0;
  for (std::size_t dilation = 1; dilation < seq_len; dilation *= 2) {
    net.emplace<nn::Conv1D>(width, filters, std::size_t{2}, dilation,
                            /*causal=*/true, seed() + layer,
                            kernels::Activation::kRelu);
    width = filters;
    ++layer;
  }
  if (layer == 0) {  // degenerate history of 1 step: plain 1x1 conv
    net.emplace<nn::Conv1D>(width, filters, std::size_t{1}, std::size_t{1},
                            /*causal=*/true, seed(),
                            kernels::Activation::kRelu);
  }
  net.emplace<nn::SliceLastTimestep>(filters);
  net.emplace<nn::Dense>(filters, std::size_t{1}, seed() + 999);
  return net;
}

nn::Sequential SeriesNetForecaster::build_network(
    std::size_t in_features) const {
  const auto filters = static_cast<std::size_t>(params().get_int("filters"));
  const auto [seq_len, channels] =
      sequence_shape(in_features, params().get_int("n_vars"), "seriesnet");

  nn::Sequential net;
  std::size_t width = channels;
  std::size_t layer = 0;
  // Deeper schedule than WaveNet: two passes over the dilation ladder.
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t dilation = 1; dilation < seq_len; dilation *= 2) {
      net.emplace<nn::Conv1D>(width, filters, std::size_t{2}, dilation,
                              /*causal=*/true, seed() + layer,
                              kernels::Activation::kTanh);
      width = filters;
      ++layer;
    }
  }
  if (layer == 0) {
    net.emplace<nn::Conv1D>(width, filters, std::size_t{1}, std::size_t{1},
                            /*causal=*/true, seed(),
                            kernels::Activation::kTanh);
  }
  net.emplace<nn::SliceLastTimestep>(filters);
  net.emplace<nn::Dense>(filters, std::size_t{1}, seed() + 999);
  return net;
}

}  // namespace coda::ts
