#include "src/nn/trainer.h"

#include "src/obs/obs.h"
#include "src/util/random.h"

namespace coda::nn {

Matrix column_matrix(const std::vector<double>& values) {
  Matrix out(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) out(i, 0) = values[i];
  return out;
}

std::vector<double> train(Sequential& net, const Matrix& X,
                          const Matrix& targets, const Loss& loss,
                          Optimizer& optimizer, const TrainConfig& config) {
  require(X.rows() == targets.rows(), "train: X/target batch mismatch");
  require(X.rows() > 0, "train: empty input");
  require(config.epochs > 0 && config.batch_size > 0,
          "train: bad configuration");

  static auto& epoch_loss_gauge = obs::gauge("nn.epoch.loss");
  static auto& step_seconds = obs::histogram("nn.step.seconds");
  const obs::Region span(obs::region_id<"nn.train">(), obs::kTraced);

  Rng rng(config.shuffle_seed);
  const auto params = net.parameters();
  std::vector<double> epoch_losses;
  epoch_losses.reserve(config.epochs);

  // Batch workspaces, reused across all batches and epochs: reshape keeps
  // the heap buffers, gather_rows_into refills them in place, so the
  // steady-state loop does no per-batch allocation here.
  Matrix bx;
  Matrix bt;
  std::vector<std::size_t> batch_idx;
  batch_idx.reserve(config.batch_size);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto order = rng.permutation(X.rows());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      obs::Region step(obs::region_id<"nn.step">());
      obs::Region gather(obs::region_id<"nn.batch_gather">());
      const std::size_t end =
          std::min(start + config.batch_size, order.size());
      batch_idx.assign(order.begin() + static_cast<std::ptrdiff_t>(start),
                       order.begin() + static_cast<std::ptrdiff_t>(end));
      bx.reshape(batch_idx.size(), X.cols());
      bt.reshape(batch_idx.size(), targets.cols());
      X.gather_rows_into(batch_idx, bx);
      targets.gather_rows_into(batch_idx, bt);
      gather.stop();

      net.zero_grad();
      const Matrix pred = net.forward(bx, /*training=*/true);
      obs::Region loss_region(obs::region_id<"nn.loss">());
      epoch_loss += loss.value(pred, bt);
      const Matrix grad = loss.gradient(pred, bt);
      loss_region.stop();
      net.backward(grad);
      obs::Region optimize(obs::region_id<"nn.optimizer">());
      optimizer.step(params);
      optimize.stop();
      ++batches;
      step_seconds.observe(step.stop());
    }
    epoch_losses.push_back(epoch_loss / static_cast<double>(batches));
    epoch_loss_gauge.set(epoch_losses.back());
  }
  return epoch_losses;
}

}  // namespace coda::nn
