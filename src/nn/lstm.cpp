#include "src/nn/lstm.h"

#include <algorithm>

#include "src/core/kernels.h"
#include "src/nn/init.h"
#include "src/obs/profiler.h"

namespace coda::nn {

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size,
           bool return_sequences, std::uint64_t seed)
    : input_size_(input_size),
      hidden_(hidden_size),
      return_sequences_(return_sequences),
      wx_(input_size, 4 * hidden_size),
      wh_(hidden_size, 4 * hidden_size),
      b_(1, 4 * hidden_size) {
  require(input_size > 0 && hidden_size > 0, "Lstm: empty shape");
  Rng rng(seed);
  xavier_init(wx_.value, input_size, 4 * hidden_size, rng);
  xavier_init(wh_.value, hidden_size, 4 * hidden_size, rng);
  // Forget-gate bias starts at 1 — the standard trick that keeps early
  // training from zeroing the cell state.
  for (std::size_t h = 0; h < hidden_size; ++h) {
    b_.value(0, hidden_size + h) = 1.0;
  }
}

Matrix Lstm::forward(const Matrix& input, bool) {
  require(input.cols() % input_size_ == 0,
          "Lstm: input width not a multiple of input_size");
  const std::size_t seq_len = input.cols() / input_size_;
  require(seq_len > 0, "Lstm: empty sequence");
  const std::size_t n = input.rows();
  const std::size_t H = hidden_;
  cached_input_ = input;
  cached_seq_len_ = seq_len;
  if (steps_.size() != seq_len) steps_.resize(seq_len);

  // Time-batched input projection: the flattened batch (N x T*input) is
  // bytewise an (N*T x input) matrix whose row r*T+t is x_t of sample r, and
  // z_ (N x T*4H) is likewise (N*T x 4H) — so z = b + x Wx for EVERY
  // timestep is one bias seed plus ONE GEMM instead of T strided ones.
  // Per element the op sequence (bias, then ascending-k dot) is exactly the
  // per-timestep loop's, so the result is bit-identical.
  z_.reshape(n, seq_len * 4 * H);
  for (std::size_t r = 0; r < n * seq_len; ++r) {
    std::copy(b_.value.ptr(), b_.value.ptr() + 4 * H, z_.ptr() + r * 4 * H);
  }
  kernels::gemm_nn(n * seq_len, 4 * H, input_size_, input.ptr(), input_size_,
                   wx_.value.ptr(), 4 * H, z_.ptr(), 4 * H);
  // The recurrent projection stays sequential (h_t depends on h_{t-1}).
  for (std::size_t t = 0; t < seq_len; ++t) {
    StepCache& s = steps_[t];
    s.c.reshape(n, H);
    s.tanh_c.reshape(n, H);
    s.h.reshape(n, H);

    // z_t lives at the strided (ldc = T*4H) timestep slice of z_; the
    // recurrent contribution accumulates in place. At t = 0 the previous
    // hidden state is all zero, so its GEMM is skipped outright.
    if (t > 0) {
      kernels::gemm_nn(n, 4 * H, H, steps_[t - 1].h.ptr(), H, wh_.value.ptr(),
                       4 * H, z_.ptr() + t * 4 * H, seq_len * 4 * H);
    }

    // The gate activations run in place over z_'s i/f/g/o slices, which
    // backward then reads as the gate values, then tanh over the new cell
    // state.
    const Matrix* c_prev = t > 0 ? &steps_[t - 1].c : nullptr;
    PROF_SCOPE("nn.lstm.gates");
    double* zt = z_.ptr() + t * 4 * H;
    const std::size_t ld = seq_len * 4 * H;
    kernels::activate(kernels::Activation::kSigmoid, zt, n, 2 * H, ld);  // i, f
    kernels::activate(kernels::Activation::kTanh, zt + 2 * H, n, H, ld);
    kernels::activate(kernels::Activation::kSigmoid, zt + 3 * H, n, H, ld);
    for (std::size_t r = 0; r < n; ++r) {
      const double* zr = z_.row_ptr(r) + t * 4 * H;
      double* cr = s.c.row_ptr(r);
      for (std::size_t hh = 0; hh < H; ++hh) {
        cr[hh] = zr[H + hh] * (t > 0 ? (*c_prev)(r, hh) : 0.0) +
                 zr[hh] * zr[2 * H + hh];
      }
    }
    std::copy(s.c.ptr(), s.c.ptr() + n * H, s.tanh_c.ptr());
    kernels::activate(kernels::Activation::kTanh, s.tanh_c.ptr(), n * H);
    for (std::size_t r = 0; r < n; ++r) {
      const double* o = z_.row_ptr(r) + t * 4 * H + 3 * H;
      for (std::size_t hh = 0; hh < H; ++hh) {
        s.h(r, hh) = o[hh] * s.tanh_c(r, hh);
      }
    }
  }

  if (!return_sequences_) return steps_.back().h;
  Matrix out(n, seq_len * hidden_);
  for (std::size_t t = 0; t < seq_len; ++t) {
    for (std::size_t r = 0; r < n; ++r) {
      std::copy(steps_[t].h.row_ptr(r), steps_[t].h.row_ptr(r) + hidden_,
                out.row_ptr(r) + t * hidden_);
    }
  }
  return out;
}

Matrix Lstm::backward(const Matrix& grad_output) {
  require_state(cached_seq_len_ > 0, "Lstm: backward without forward");
  const std::size_t seq_len = cached_seq_len_;
  const std::size_t n = cached_input_.rows();
  const std::size_t H = hidden_;
  if (return_sequences_) {
    require(grad_output.cols() == seq_len * hidden_,
            "Lstm: grad shape mismatch (sequences)");
  } else {
    require(grad_output.cols() == hidden_, "Lstm: grad shape mismatch");
  }
  require(grad_output.rows() == n, "Lstm: grad batch mismatch");

  Matrix grad_input(n, cached_input_.cols());
  dh_next_.reshape(n, H);
  dh_next_.fill(0.0);
  dc_next_.reshape(n, H);
  dc_next_.fill(0.0);
  dz_.reshape(n, seq_len * 4 * H);
  dh_prev_.reshape(n, H);
  dtanh_c_.reshape(n, H);

  for (std::size_t t = seq_len; t-- > 0;) {
    const StepCache& s = steps_[t];
    const Matrix* c_prev_mat = t > 0 ? &steps_[t - 1].c : nullptr;

    // Elementwise gate backprop into this timestep's slice of the batched
    // N x T*4H buffer; dc carries in place through dc_next_. Each slice
    // first holds the gradient at the gate's output and is then pulled back
    // through the gate by activate_grad, from the gate values z_ holds.
    for (std::size_t r = 0; r < n; ++r) {
      const double* zr = z_.row_ptr(r) + t * 4 * H;
      double* dzr = dz_.row_ptr(r) + t * 4 * H;
      double* dh = dh_next_.row_ptr(r);
      for (std::size_t hh = 0; hh < H; ++hh) {
        if (return_sequences_) {
          dh[hh] += grad_output(r, t * hidden_ + hh);
        } else if (t + 1 == seq_len) {
          dh[hh] += grad_output(r, hh);
        }
        dzr[3 * H + hh] = dh[hh] * s.tanh_c(r, hh);  // do
        dtanh_c_(r, hh) = dh[hh] * zr[3 * H + hh];
      }
    }
    kernels::activate_grad(kernels::Activation::kTanh, s.tanh_c.ptr(),
                           dtanh_c_.ptr(), n * H);
    for (std::size_t r = 0; r < n; ++r) {
      const double* zr = z_.row_ptr(r) + t * 4 * H;
      double* dzr = dz_.row_ptr(r) + t * 4 * H;
      double* dc = dc_next_.row_ptr(r);
      for (std::size_t hh = 0; hh < H; ++hh) {
        const double dcv = dc[hh] + dtanh_c_(r, hh);
        const double c_prev_v = t > 0 ? (*c_prev_mat)(r, hh) : 0.0;
        dzr[hh] = dcv * zr[2 * H + hh];   // di
        dzr[H + hh] = dcv * c_prev_v;     // df
        dzr[2 * H + hh] = dcv * zr[hh];   // dg
        dc[hh] = dcv * zr[H + hh];
      }
    }
    const double* zt = z_.ptr() + t * 4 * H;
    double* dzt = dz_.ptr() + t * 4 * H;
    const std::size_t ld = seq_len * 4 * H;
    kernels::activate_grad(kernels::Activation::kSigmoid, zt, dzt, n, 2 * H,
                           ld);  // i, f
    kernels::activate_grad(kernels::Activation::kTanh, zt + 2 * H, dzt + 2 * H,
                           n, H, ld);
    kernels::activate_grad(kernels::Activation::kSigmoid, zt + 3 * H,
                           dzt + 3 * H, n, H, ld);

    // Only the recurrent carry dh_{t-1} = dz_t Whᵀ is inherently
    // sequential; every other GEMM of the old per-timestep loop is batched
    // over all timesteps after this loop. Overwrite mode replaces the old
    // zero-fill + accumulate (0 + s == s).
    if (t > 0) {
      kernels::gemm_nt(n, H, 4 * H, dz_.ptr() + t * 4 * H, seq_len * 4 * H,
                       wh_.value.ptr(), 4 * H, dh_prev_.ptr(), H, {},
                       /*accumulate=*/false);
      std::swap(dh_next_, dh_prev_);
    }
  }

  // dX = dz Wxᵀ for every timestep in one GEMM over the (N*T x 4H) /
  // (N*T x input) flattened views — each output element is one ascending-k
  // dot, independent per timestep, so batching cannot change it.
  kernels::gemm_nt(n * seq_len, input_size_, 4 * H, dz_.ptr(), 4 * H,
                   wx_.value.ptr(), 4 * H, grad_input.ptr(), input_size_);

  // The weight/bias gradients accumulate across timesteps, and the old loop
  // accumulated in (t descending, row ascending) order. Reordering x, dz
  // and the hidden-state history into that row order lets ONE gemm_tn /
  // col_sums pass replay the exact same per-element addend sequence
  // (ascending k inside the kernel == t desc, r asc here).
  x_rev_.reshape(seq_len * n, input_size_);
  dz_rev_.reshape(seq_len * n, 4 * H);
  if (seq_len > 1) h_rev_.reshape((seq_len - 1) * n, H);
  for (std::size_t t = seq_len; t-- > 0;) {
    const std::size_t tt = seq_len - 1 - t;
    for (std::size_t r = 0; r < n; ++r) {
      const double* xs = cached_input_.row_ptr(r) + t * input_size_;
      std::copy(xs, xs + input_size_, x_rev_.row_ptr(tt * n + r));
      const double* ds = dz_.row_ptr(r) + t * 4 * H;
      std::copy(ds, ds + 4 * H, dz_rev_.row_ptr(tt * n + r));
      if (t > 0) {
        const double* hs = steps_[t - 1].h.row_ptr(r);
        std::copy(hs, hs + H, h_rev_.row_ptr(tt * n + r));
      }
    }
  }
  kernels::col_sums_add(seq_len * n, 4 * H, dz_rev_.ptr(), 4 * H,
                        b_.grad.ptr());
  kernels::gemm_tn(input_size_, 4 * H, seq_len * n, x_rev_.ptr(),
                   input_size_, dz_rev_.ptr(), 4 * H, wx_.grad.ptr(), 4 * H);
  if (seq_len > 1) {
    // dWh sums over t = T-1 .. 1, whose dz rows are exactly the first
    // (T-1)*n rows of the reordered buffer.
    kernels::gemm_tn(H, 4 * H, (seq_len - 1) * n, h_rev_.ptr(), H,
                     dz_rev_.ptr(), 4 * H, wh_.grad.ptr(), 4 * H);
  }
  return grad_input;
}

}  // namespace coda::nn
