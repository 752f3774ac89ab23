// Inverted dropout (the paper's LSTM/DNN architectures interleave dropout
// layers, Section IV-C2/3).
#pragma once

#include <cstdint>

#include "src/nn/layer.h"

namespace coda::nn {

/// Drops activations with probability `rate` during training, scaling the
/// survivors by 1/(1-rate); identity at inference. The mask of the c-th
/// training forward is kernels::dropout_mask(seed, c): a pure function of
/// the seed, the call count and the element index, so a clone continues
/// the same stream.
class Dropout final : public Layer {
 public:
  explicit Dropout(double rate, std::uint64_t seed = 42);

  Matrix forward(const Matrix& input, bool training) override;
  Matrix backward(const Matrix& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dropout>(*this);
  }
  std::string name() const override { return "dropout"; }

  double rate() const { return rate_; }

 private:
  double rate_;
  std::uint64_t seed_;
  std::uint64_t calls_ = 0;  // training forwards so far
  Matrix mask_;  // per-element keep scale of the last training forward
  bool last_was_training_ = false;
};

}  // namespace coda::nn
