// LSTM layer (Section IV-C2): recurrent units over flattened sequences with
// full backpropagation through time. Input rows are timestep-major
// flattened (T x input_size); the output is either the final hidden state
// (N x H) or the full hidden sequence (N x T*H) for stacking.
#pragma once

#include "src/nn/layer.h"
#include "src/util/random.h"

namespace coda::nn {

/// Single LSTM layer with gates ordered (input, forget, candidate, output).
class Lstm final : public Layer {
 public:
  Lstm(std::size_t input_size, std::size_t hidden_size,
       bool return_sequences = false, std::uint64_t seed = 42);

  Matrix forward(const Matrix& input, bool training) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<ParamTensor*> parameters() override {
    return {&wx_, &wh_, &b_};
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Lstm>(*this);
  }
  std::string name() const override { return "lstm"; }

  std::size_t hidden_size() const { return hidden_; }
  bool return_sequences() const { return return_sequences_; }

 private:
  std::size_t input_size_;
  std::size_t hidden_;
  bool return_sequences_;
  ParamTensor wx_;  // input_size x 4H
  ParamTensor wh_;  // H x 4H
  ParamTensor b_;   // 1 x 4H

  // Per-timestep caches of the last forward batch (each N x H): cell
  // state, its tanh and the hidden state. The gate values stay in z_. The
  // matrices are reshaped in place each forward, so steady-state training
  // reuses their buffers instead of reallocating per step.
  struct StepCache {
    Matrix c, tanh_c, h;
  };
  Matrix cached_input_;
  std::vector<StepCache> steps_;
  std::size_t cached_seq_len_ = 0;

  // Workspaces reused across forward/backward calls: the time-batched
  // N x T*4H gate pre-activations (activated in place by forward, then read
  // by backward as the gate values) / gradients, the BPTT carry buffers and
  // the gradient at tanh(c) of one timestep.
  // The input projection of every timestep runs as ONE GEMM over the
  // flattened (N*T x input) view of the batch, and the weight-gradient
  // GEMMs of backward are batched over buffers reordered to (t descending,
  // row ascending) so the single reduction replays the per-timestep loop's
  // accumulation order exactly (see backward()).
  Matrix z_;
  Matrix dz_;
  Matrix dh_next_;
  Matrix dc_next_;
  Matrix dh_prev_;
  Matrix dtanh_c_;
  Matrix x_rev_;
  Matrix dz_rev_;
  Matrix h_rev_;
};

}  // namespace coda::nn
