// 1-D convolution over flattened sequences (the CNN / WaveNet / SeriesNet
// estimators of Section IV-C2). Each input row is a timestep-major
// flattened sequence: [t0c0, t0c1, ..., t1c0, ...]. With causal padding the
// output keeps the sequence length and position t only sees inputs at
// t, t-dilation, t-2*dilation, ... (the WaveNet construction).
#pragma once

#include "src/core/kernels.h"
#include "src/nn/layer.h"
#include "src/util/random.h"

namespace coda::nn {

/// Dilated (optionally causal) 1-D convolution, y = act(conv(x) + b). As
/// in Dense, the activation defaults to none and a given one is fused into
/// the GEMM epilogue.
class Conv1D final : public Layer {
 public:
  /// kernel taps are spaced `dilation` steps apart. causal=true left-pads
  /// with zeros (output length == input length); causal=false is a "valid"
  /// convolution (output length = T - (kernel-1)*dilation).
  Conv1D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t dilation = 1, bool causal = true,
         std::uint64_t seed = 42,
         kernels::Activation act = kernels::Activation::kNone);

  Matrix forward(const Matrix& input, bool training) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<ParamTensor*> parameters() override { return {&w_, &b_}; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv1D>(*this);
  }
  std::string name() const override { return "conv1d"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t output_length(std::size_t input_length) const;

 private:
  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t dilation_;
  bool causal_;
  kernels::Activation act_;
  ParamTensor w_;  // (kernel * in_channels) x out_channels
  ParamTensor b_;  // 1 x out_channels
  // Shape of the last forward batch; the input itself is not kept, since
  // backward reads the receptive fields from im2col_.
  std::size_t cached_rows_ = 0;
  std::size_t cached_seq_len_ = 0;
  Matrix cached_output_;  // post-activation; only kept when act_ is fused

  // im2col workspace: one row per (batch row, output position) holding the
  // kernel*in_channels receptive field (zeros where the causal padding
  // falls). Built in forward, reused by backward, buffer kept across calls.
  Matrix im2col_;
  Matrix dcol_;  // backward counterpart: per-row gradient w.r.t. the field
};

/// Non-overlapping max pooling over time. Input rows are timestep-major
/// flattened (T x C); output is (T/pool) x C flattened (remainder dropped).
class MaxPool1D final : public Layer {
 public:
  MaxPool1D(std::size_t channels, std::size_t pool);

  Matrix forward(const Matrix& input, bool training) override;
  Matrix backward(const Matrix& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool1D>(*this);
  }
  std::string name() const override { return "maxpool1d"; }

  std::size_t output_length(std::size_t input_length) const {
    return input_length / pool_;
  }

 private:
  std::size_t channels_;
  std::size_t pool_;
  std::vector<std::size_t> argmax_;  // flat source index per output element
  std::size_t cached_rows_ = 0;
  std::size_t cached_cols_ = 0;
};

}  // namespace coda::nn
