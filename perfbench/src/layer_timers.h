// Benchmark-side timing around calls into the program's public layer
// interfaces. Nothing here is compiled into the program: the decorators
// wrap nn::Layer / nn::Optimizer / nn::Loss and ResultCache objects that
// the benchmark itself constructs or is handed.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/nn/layer.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"

namespace perfbench {

/// Named sample lists, safe to fill from several threads.
class Timers {
 public:
  void add(const std::string& name, double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[name].push_back(seconds);
  }
  std::vector<double> samples(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }
  double sum(const std::string& name) const {
    double s = 0.0;
    for (const double v : samples(name)) s += v;
    return s;
  }
  std::size_t count(const std::string& name) const {
    return samples(name).size();
  }
  /// Sum per name, for every name recorded so far.
  std::map<std::string, double> sums() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const auto& [name, values] : samples_) {
      double s = 0.0;
      for (const double v : values) s += v;
      out[name] = s;
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Times forward() and backward() of the wrapped layer into
/// "nn.<kind>.fwd_s" / "nn.<kind>.bwd_s", where <kind> is lstm, conv1d,
/// dense or dropout, and "other" for activations, pooling and slicing.
class TimedLayer final : public coda::nn::Layer {
 public:
  TimedLayer(std::unique_ptr<coda::nn::Layer> inner, Timers* timers);

  coda::Matrix forward(const coda::Matrix& input, bool training) override;
  coda::Matrix backward(const coda::Matrix& grad_output) override;
  std::vector<coda::nn::ParamTensor*> parameters() override {
    return inner_->parameters();
  }
  std::unique_ptr<coda::nn::Layer> clone() const override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<coda::nn::Layer> inner_;
  Timers* timers_;
  std::string fwd_name_;
  std::string bwd_name_;
};

class TimedOptimizer final : public coda::nn::Optimizer {
 public:
  TimedOptimizer(coda::nn::Optimizer* inner, Timers* timers)
      : inner_(inner), timers_(timers) {}
  void step(const std::vector<coda::nn::ParamTensor*>& params) override;

 private:
  coda::nn::Optimizer* inner_;
  Timers* timers_;
};

class TimedLoss final : public coda::nn::Loss {
 public:
  TimedLoss(const coda::nn::Loss* inner, Timers* timers)
      : inner_(inner), timers_(timers) {}
  double value(const coda::Matrix& pred,
               const coda::Matrix& target) const override;
  coda::Matrix gradient(const coda::Matrix& pred,
                        const coda::Matrix& target) const override;

 private:
  const coda::nn::Loss* inner_;
  Timers* timers_;
};

/// Times every ResultCache call a fleet client makes into
/// "darr.<op>_s", and counts claim outcomes into "darr.claim.granted" /
/// "darr.claim.denied" (one zero-length sample per outcome).
class TimedCache final : public coda::ResultCache {
 public:
  TimedCache(coda::ResultCache* inner, Timers* timers)
      : inner_(inner), timers_(timers) {}

  std::optional<coda::CachedResult> fetch(const std::string& key) override;
  std::vector<std::optional<coda::CachedResult>> fetch_many(
      const std::vector<std::string>& keys) override;
  bool claim(const std::string& key) override;
  void put(const std::string& key, const coda::CachedResult& result) override;
  void release(const std::string& key) override;

 private:
  coda::ResultCache* inner_;
  Timers* timers_;
};

}  // namespace perfbench
