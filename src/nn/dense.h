// Fully connected layer.
#pragma once

#include "src/core/kernels.h"
#include "src/nn/layer.h"
#include "src/util/random.h"

namespace coda::nn {

/// y = act(x W + b) with W: in x out, b: 1 x out. The activation defaults
/// to none; passing one fuses it into the GEMM epilogue (no separate
/// activation layer, no extra copy of the output).
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features,
        std::uint64_t seed = 42,
        kernels::Activation act = kernels::Activation::kNone);

  Matrix forward(const Matrix& input, bool training) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<ParamTensor*> parameters() override { return {&w_, &b_}; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }
  std::string name() const override { return "dense"; }

  std::size_t in_features() const { return w_.value.rows(); }
  std::size_t out_features() const { return w_.value.cols(); }
  kernels::Activation activation() const { return act_; }

 private:
  ParamTensor w_;
  ParamTensor b_;
  kernels::Activation act_;
  Matrix cached_input_;
  Matrix cached_output_;  // post-activation; only kept when act_ is fused
  Matrix dw_;             // workspace reused across backward calls
};

}  // namespace coda::nn
