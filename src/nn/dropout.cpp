#include "src/nn/dropout.h"

#include "src/core/kernels.h"

namespace coda::nn {

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), seed_(seed) {
  require(rate >= 0.0 && rate < 1.0, "Dropout: rate must be in [0,1)");
}

Matrix Dropout::forward(const Matrix& input, bool training) {
  last_was_training_ = training;
  if (!training || rate_ == 0.0) return input;
  mask_.reshape(input.rows(), input.cols());
  kernels::dropout_mask(seed_, calls_++, rate_, mask_.ptr(), mask_.size());
  Matrix out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= mask_.data()[i];
  }
  return out;
}

Matrix Dropout::backward(const Matrix& grad_output) {
  if (!last_was_training_ || rate_ == 0.0) return grad_output;
  require_state(mask_.size() == grad_output.size(),
                "Dropout: backward without matching forward");
  Matrix out = grad_output;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= mask_.data()[i];
  }
  return out;
}

}  // namespace coda::nn
