#include "src/ts/forecasters.h"

#include "src/ml/linalg.h"
#include "src/obs/profiler.h"

namespace coda::ts {

void ZeroModel::fit(const Matrix& X, const std::vector<double>& y) {
  require(X.rows() == y.size(), "ZeroModel: X/y size mismatch");
  require(X.rows() > 0, "ZeroModel: empty input");
  const auto col = static_cast<std::size_t>(params().get_int("value_col"));
  require(col < X.cols(), "ZeroModel: value_col out of range");
  fitted_cols_ = X.cols();
}

std::vector<double> ZeroModel::predict(const Matrix& X) const {
  require_state(fitted_cols_ > 0, "ZeroModel: call fit() first");
  require(X.cols() == fitted_cols_, "ZeroModel: column count mismatch");
  const auto col = static_cast<std::size_t>(params().get_int("value_col"));
  std::vector<double> out(X.rows());
  for (std::size_t r = 0; r < X.rows(); ++r) out[r] = X(r, col);
  return out;
}

void ArModel::fit(const Matrix& X, const std::vector<double>& y) {
  require(X.rows() == y.size(), "ArModel: X/y size mismatch");
  require(X.rows() > 0, "ArModel: empty input");
  const double ridge = params().get_double("ridge");
  require(ridge >= 0.0, "ArModel: ridge must be >= 0");
  PROF_SCOPE("ts.ar.fit");  // a child of eval.fold.fit, like nn.train
  // Append intercept column and solve the regularized normal equations.
  Matrix design(X.rows(), X.cols() + 1);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    for (std::size_t c = 0; c < X.cols(); ++c) design(r, c) = X(r, c);
    design(r, X.cols()) = 1.0;
  }
  weights_ = least_squares(design, y, ridge);
}

std::vector<double> ArModel::predict(const Matrix& X) const {
  require_state(!weights_.empty(), "ArModel: call fit() first");
  require(X.cols() + 1 == weights_.size(), "ArModel: column count mismatch");
  std::vector<double> out(X.rows());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    double s = weights_.back();
    for (std::size_t c = 0; c < X.cols(); ++c) s += weights_[c] * X(r, c);
    out[r] = s;
  }
  return out;
}

}  // namespace coda::ts
