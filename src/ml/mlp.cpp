#include "src/ml/mlp.h"

#include <tuple>

#include "src/core/metrics.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/nn/trainer.h"

namespace coda {
namespace {

struct MlpParams {
  std::size_t hidden;
  std::size_t hidden_layers;
  double dropout;
  nn::TrainConfig train;
  double learning_rate;
  std::uint64_t seed;
};

MlpParams read_mlp_params(const ParamMap& params) {
  MlpParams p;
  p.hidden = static_cast<std::size_t>(params.get_int("hidden"));
  p.hidden_layers =
      static_cast<std::size_t>(params.get_int("hidden_layers"));
  p.dropout = params.get_double("dropout");
  p.train.epochs = static_cast<std::size_t>(params.get_int("epochs"));
  p.train.batch_size = static_cast<std::size_t>(params.get_int("batch_size"));
  p.learning_rate = params.get_double("learning_rate");
  p.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  p.train.shuffle_seed = p.seed;
  require(p.hidden >= 1 && p.hidden_layers >= 1, "mlp: empty architecture");
  require(p.dropout >= 0.0 && p.dropout < 1.0, "mlp: dropout out of [0,1)");
  return p;
}

nn::Sequential build_mlp(std::size_t in_features, const MlpParams& p,
                         bool classifier) {
  // Activations ride in the Dense GEMM epilogue (bias+ReLU/Sigmoid)
  // instead of separate elementwise layers; seeds are unchanged
  // so the weights match the old Dense+ReLU stacks exactly.
  nn::Sequential net;
  std::size_t width = in_features;
  for (std::size_t l = 0; l < p.hidden_layers; ++l) {
    net.emplace<nn::Dense>(width, p.hidden, p.seed + l,
                           kernels::Activation::kRelu);
    if (p.dropout > 0.0) net.emplace<nn::Dropout>(p.dropout, p.seed + 100 + l);
    width = p.hidden;
  }
  net.emplace<nn::Dense>(width, std::size_t{1}, p.seed + 999,
                         classifier ? kernels::Activation::kSigmoid
                                    : kernels::Activation::kNone);
  return net;
}

}  // namespace

void MlpRegressor::fit(const Matrix& X, const std::vector<double>& y) {
  require(X.rows() == y.size(), "MlpRegressor: X/y size mismatch");
  require(X.rows() > 0, "MlpRegressor: empty input");
  const MlpParams p = read_mlp_params(params());

  // Standardize targets so learning-rate defaults work across scales.
  std::tie(y_mean_, y_scale_) = mean_stddev(y);
  if (y_scale_ == 0.0) y_scale_ = 1.0;
  std::vector<double> scaled(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    scaled[i] = (y[i] - y_mean_) / y_scale_;
  }

  net_ = build_mlp(X.cols(), p, /*classifier=*/false);
  nn::MseLoss loss;
  nn::Adam optimizer(p.learning_rate);
  nn::train(net_, X, nn::column_matrix(scaled), loss, optimizer, p.train);
  fitted_ = true;
}

std::vector<double> MlpRegressor::predict(const Matrix& X) const {
  require_state(fitted_, "MlpRegressor: call fit() first");
  // forward() mutates layer caches; work on a copy to keep predict const.
  nn::Sequential net = net_;
  const Matrix out = net.forward(X, /*training=*/false);
  std::vector<double> pred(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    pred[i] = out(i, 0) * y_scale_ + y_mean_;
  }
  return pred;
}

void MlpClassifier::fit(const Matrix& X, const std::vector<double>& y) {
  require(X.rows() == y.size(), "MlpClassifier: X/y size mismatch");
  require(X.rows() > 0, "MlpClassifier: empty input");
  for (const double label : y) {
    require(label == 0.0 || label == 1.0,
            "MlpClassifier: labels must be 0/1");
  }
  const MlpParams p = read_mlp_params(params());
  net_ = build_mlp(X.cols(), p, /*classifier=*/true);
  nn::BceLoss loss;
  nn::Adam optimizer(p.learning_rate);
  nn::train(net_, X, nn::column_matrix(y), loss, optimizer, p.train);
  fitted_ = true;
}

std::vector<double> MlpClassifier::predict(const Matrix& X) const {
  require_state(fitted_, "MlpClassifier: call fit() first");
  nn::Sequential net = net_;
  const Matrix out = net.forward(X, /*training=*/false);
  std::vector<double> pred(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) pred[i] = out(i, 0);
  return pred;
}

}  // namespace coda
