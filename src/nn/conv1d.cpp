#include "src/nn/conv1d.h"

#include <algorithm>

#include "src/core/kernels.h"
#include "src/nn/init.h"
#include "src/obs/profiler.h"

namespace coda::nn {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t dilation, bool causal,
               std::uint64_t seed, kernels::Activation act)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      dilation_(dilation),
      causal_(causal),
      act_(act),
      w_(kernel * in_channels, out_channels),
      b_(1, out_channels) {
  require(in_channels > 0 && out_channels > 0 && kernel > 0 && dilation > 0,
          "Conv1D: empty shape");
  Rng rng(seed);
  xavier_init(w_.value, kernel * in_channels, out_channels, rng);
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  if (causal_) return input_length;
  const std::size_t span = (kernel_ - 1) * dilation_;
  require(input_length > span, "Conv1D: sequence shorter than kernel span");
  return input_length - span;
}

Matrix Conv1D::forward(const Matrix& input, bool) {
  require(input.cols() % in_channels_ == 0,
          "Conv1D: input width not a multiple of in_channels");
  const std::size_t seq_len = input.cols() / in_channels_;
  const std::size_t out_len = output_length(seq_len);
  cached_rows_ = input.rows();
  cached_seq_len_ = seq_len;

  // im2col: gather each receptive field into a contiguous row, then the
  // whole convolution is one GEMM. Causal: tap k reads input position
  // t - (kernel-1-k)*dilation (zeros where that underflows). Valid: tap k
  // reads t + k*dilation. The row-major output block (N*out_len) x out_ch
  // is bytewise the same layout as the N x (out_len*out_ch) result, so the
  // GEMM writes it directly; rows are pre-seeded with the bias so the
  // accumulation order matches the old per-tap loops exactly, and the
  // activation (when fused) is applied by the GEMM epilogue.
  const std::size_t fields = kernel_ * in_channels_;
  im2col_.reshape(input.rows() * out_len, fields);
  obs::Region im2col(obs::region_id<"nn.conv1d.im2col">());
  for (std::size_t n = 0; n < input.rows(); ++n) {
    const double* in_row = input.row_ptr(n);
    for (std::size_t t = 0; t < out_len; ++t) {
      double* dst = im2col_.row_ptr(n * out_len + t);
      for (std::size_t k = 0; k < kernel_; ++k) {
        std::ptrdiff_t src;
        if (causal_) {
          src = static_cast<std::ptrdiff_t>(t) -
                static_cast<std::ptrdiff_t>((kernel_ - 1 - k) * dilation_);
        } else {
          src = static_cast<std::ptrdiff_t>(t + k * dilation_);
        }
        double* tap = dst + k * in_channels_;
        if (src < 0) {
          std::fill(tap, tap + in_channels_, 0.0);
        } else {
          const double* sp =
              in_row + static_cast<std::size_t>(src) * in_channels_;
          std::copy(sp, sp + in_channels_, tap);
        }
      }
    }
  }
  im2col.stop();

  Matrix out(input.rows(), out_len * out_channels_);
  for (std::size_t r = 0; r < im2col_.rows(); ++r) {
    std::copy(b_.value.ptr(), b_.value.ptr() + out_channels_,
              out.ptr() + r * out_channels_);
  }
  kernels::gemm_nn(im2col_.rows(), out_channels_, fields, im2col_.ptr(),
                   fields, w_.value.ptr(), out_channels_, out.ptr(),
                   out_channels_, kernels::Epilogue{nullptr, act_});
  if (act_ != kernels::Activation::kNone) cached_output_ = out;
  return out;
}

Matrix Conv1D::backward(const Matrix& grad_output) {
  require_state(cached_seq_len_ > 0, "Conv1D: backward without forward");
  const std::size_t seq_len = cached_seq_len_;
  const std::size_t out_len = output_length(seq_len);
  require(grad_output.rows() == cached_rows_ &&
              grad_output.cols() == out_len * out_channels_,
          "Conv1D: grad shape mismatch");
  // With a fused activation, first pull the gradient back through it using
  // the cached post-activation output.
  Matrix g_act;
  const Matrix* g = &grad_output;
  if (act_ != kernels::Activation::kNone) {
    g_act = grad_output;
    kernels::activate_grad(act_, cached_output_.ptr(), g_act.ptr(),
                           g_act.size());
    g = &g_act;
  }

  // The grad block is bytewise a (N*out_len) x out_ch matrix. db is its
  // column sums; dW += im2colᵀ · g reuses the fields gathered in forward;
  // dX is g · Wᵀ per row, scattered back through the same tap mapping
  // (col2im) — the only part that has no GEMM shape.
  const std::size_t fields = kernel_ * in_channels_;
  const std::size_t gr = g->rows() * out_len;
  kernels::col_sums_add(gr, out_channels_, g->ptr(), out_channels_,
                        b_.grad.ptr());
  kernels::gemm_tn(fields, out_channels_, gr, im2col_.ptr(), fields,
                   g->ptr(), out_channels_, w_.grad.ptr(), out_channels_);
  dcol_.reshape(gr, fields);
  // Overwrite mode: bit-identical to the old zero-fill + accumulate
  // (0 + s == s) without the extra pass over dcol_.
  kernels::gemm_nt(gr, fields, out_channels_, g->ptr(), out_channels_,
                   w_.value.ptr(), out_channels_, dcol_.ptr(), fields, {},
                   /*accumulate=*/false);

  Matrix grad_input(cached_rows_, seq_len * in_channels_);
  PROF_SCOPE("nn.conv1d.col2im");
  for (std::size_t n = 0; n < cached_rows_; ++n) {
    double* gi_row = grad_input.row_ptr(n);
    for (std::size_t t = 0; t < out_len; ++t) {
      const double* src_row = dcol_.row_ptr(n * out_len + t);
      for (std::size_t k = 0; k < kernel_; ++k) {
        std::ptrdiff_t src;
        if (causal_) {
          src = static_cast<std::ptrdiff_t>(t) -
                static_cast<std::ptrdiff_t>((kernel_ - 1 - k) * dilation_);
          if (src < 0) continue;
        } else {
          src = static_cast<std::ptrdiff_t>(t + k * dilation_);
        }
        double* dst = gi_row + static_cast<std::size_t>(src) * in_channels_;
        const double* tap = src_row + k * in_channels_;
        for (std::size_t ci = 0; ci < in_channels_; ++ci) dst[ci] += tap[ci];
      }
    }
  }
  return grad_input;
}

MaxPool1D::MaxPool1D(std::size_t channels, std::size_t pool)
    : channels_(channels), pool_(pool) {
  require(channels > 0 && pool > 0, "MaxPool1D: empty shape");
}

Matrix MaxPool1D::forward(const Matrix& input, bool) {
  require(input.cols() % channels_ == 0,
          "MaxPool1D: input width not a multiple of channels");
  const std::size_t seq_len = input.cols() / channels_;
  const std::size_t out_len = seq_len / pool_;
  require(out_len > 0, "MaxPool1D: sequence shorter than pool size");
  cached_rows_ = input.rows();
  cached_cols_ = input.cols();

  Matrix out(input.rows(), out_len * channels_);
  argmax_.assign(out.size(), 0);
  for (std::size_t n = 0; n < input.rows(); ++n) {
    for (std::size_t t = 0; t < out_len; ++t) {
      for (std::size_t c = 0; c < channels_; ++c) {
        double best = input(n, (t * pool_) * channels_ + c);
        std::size_t best_idx = (t * pool_) * channels_ + c;
        for (std::size_t p = 1; p < pool_; ++p) {
          const std::size_t idx = (t * pool_ + p) * channels_ + c;
          if (input(n, idx) > best) {
            best = input(n, idx);
            best_idx = idx;
          }
        }
        const std::size_t out_idx = t * channels_ + c;
        out(n, out_idx) = best;
        argmax_[n * out.cols() + out_idx] = best_idx;
      }
    }
  }
  return out;
}

Matrix MaxPool1D::backward(const Matrix& grad_output) {
  require_state(cached_rows_ == grad_output.rows(),
                "MaxPool1D: backward without matching forward");
  Matrix grad_input(cached_rows_, cached_cols_);
  for (std::size_t n = 0; n < grad_output.rows(); ++n) {
    for (std::size_t j = 0; j < grad_output.cols(); ++j) {
      grad_input(n, argmax_[n * grad_output.cols() + j]) +=
          grad_output(n, j);
    }
  }
  return grad_input;
}

}  // namespace coda::nn
