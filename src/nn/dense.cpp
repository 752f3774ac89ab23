#include "src/nn/dense.h"

#include "src/nn/init.h"

namespace coda::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             std::uint64_t seed, kernels::Activation act)
    : w_(in_features, out_features), b_(1, out_features), act_(act) {
  require(in_features > 0 && out_features > 0, "Dense: empty shape");
  Rng rng(seed);
  xavier_init(w_.value, in_features, out_features, rng);
}

Matrix Dense::forward(const Matrix& input, bool) {
  require(input.cols() == w_.value.rows(),
          "Dense: input has " + std::to_string(input.cols()) +
              " features, layer expects " + std::to_string(w_.value.rows()));
  cached_input_ = input;
  Matrix out(input.rows(), w_.value.cols());
  // Bias broadcast (and the activation, when fused) happen in the GEMM
  // epilogue: the bias in the final write-back, the activation in one
  // pass over `out` right after the GEMM.
  kernels::matmul_into(input, w_.value, out,
                       kernels::Epilogue{b_.value.ptr(), act_});
  if (act_ != kernels::Activation::kNone) cached_output_ = out;
  return out;
}

Matrix Dense::backward(const Matrix& grad_output) {
  require_state(cached_input_.rows() == grad_output.rows(),
                "Dense: backward without matching forward");
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
  // dW += x^T g ; db += column sums of g ; dInput = g W^T — all without
  // materializing any transpose.
  dw_.reshape(w_.value.rows(), w_.value.cols());
  dw_.fill(0.0);
  kernels::matmul_tn_into(cached_input_, *g, dw_);
  kernels::axpy(dw_.size(), 1.0, dw_.ptr(), w_.grad.ptr());
  kernels::col_sums_add(g->rows(), g->cols(), g->ptr(), g->cols(),
                        b_.grad.ptr());
  Matrix dx(g->rows(), w_.value.rows());
  kernels::matmul_nt_into(*g, w_.value, dx);
  return dx;
}

}  // namespace coda::nn
