// Standalone elementwise activation layers: ReLU, Tanh, Sigmoid. Dense and
// Conv1D fuse their activation into the GEMM epilogue, and no forecaster
// stacks these layers; they remain the unfused reference the fused layers
// are tested against and the building block for stacks assembled from the
// public layers. The math is kernels::activate / activate_grad.
#pragma once

#include "src/core/kernels.h"
#include "src/nn/layer.h"

namespace coda::nn {

/// y = f(x); backward pulls the gradient through f' of the cached output.
template <kernels::Activation A>
class ActivationLayer final : public Layer {
  static_assert(A != kernels::Activation::kNone, "no activation to apply");

 public:
  Matrix forward(const Matrix& input, bool) override {
    Matrix out = input;
    kernels::activate(A, out.ptr(), out.size());
    cached_output_ = out;
    return out;
  }

  Matrix backward(const Matrix& grad_output) override {
    require_state(cached_output_.size() == grad_output.size(),
                  name() + ": backward without matching forward");
    Matrix out = grad_output;
    kernels::activate_grad(A, cached_output_.ptr(), out.ptr(), out.size());
    return out;
  }

  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ActivationLayer>(*this);
  }

  std::string name() const override {
    if constexpr (A == kernels::Activation::kRelu) {
      return "relu";
    } else if constexpr (A == kernels::Activation::kTanh) {
      return "tanh";
    } else {
      return "sigmoid";
    }
  }

 private:
  Matrix cached_output_;
};

using ReLU = ActivationLayer<kernels::Activation::kRelu>;
using Tanh = ActivationLayer<kernels::Activation::kTanh>;
using Sigmoid = ActivationLayer<kernels::Activation::kSigmoid>;

}  // namespace coda::nn
