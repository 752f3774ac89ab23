#include "layer_timers.h"

#include <chrono>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string layer_kind(const std::string& layer_name) {
  for (const char* kind : {"lstm", "conv1d", "dense", "dropout"}) {
    if (layer_name == kind) return kind;
  }
  return "other";
}

}  // namespace

TimedLayer::TimedLayer(std::unique_ptr<coda::nn::Layer> inner, Timers* timers)
    : inner_(std::move(inner)),
      timers_(timers),
      fwd_name_("nn." + layer_kind(inner_->name()) + ".fwd_s"),
      bwd_name_("nn." + layer_kind(inner_->name()) + ".bwd_s") {}

coda::Matrix TimedLayer::forward(const coda::Matrix& input, bool training) {
  const auto start = Clock::now();
  coda::Matrix out = inner_->forward(input, training);
  timers_->add(fwd_name_, since(start));
  return out;
}

coda::Matrix TimedLayer::backward(const coda::Matrix& grad_output) {
  const auto start = Clock::now();
  coda::Matrix out = inner_->backward(grad_output);
  timers_->add(bwd_name_, since(start));
  return out;
}

std::unique_ptr<coda::nn::Layer> TimedLayer::clone() const {
  return std::make_unique<TimedLayer>(inner_->clone(), timers_);
}

void TimedOptimizer::step(const std::vector<coda::nn::ParamTensor*>& params) {
  const auto start = Clock::now();
  inner_->step(params);
  timers_->add("nn.optimizer_s", since(start));
}

double TimedLoss::value(const coda::Matrix& pred,
                        const coda::Matrix& target) const {
  const auto start = Clock::now();
  const double v = inner_->value(pred, target);
  timers_->add("nn.loss_s", since(start));
  return v;
}

coda::Matrix TimedLoss::gradient(const coda::Matrix& pred,
                                 const coda::Matrix& target) const {
  const auto start = Clock::now();
  coda::Matrix g = inner_->gradient(pred, target);
  timers_->add("nn.loss_s", since(start));
  return g;
}

std::optional<coda::CachedResult> TimedCache::fetch(const std::string& key) {
  const auto start = Clock::now();
  auto r = inner_->fetch(key);
  timers_->add("darr.fetch_s", since(start));
  return r;
}

std::vector<std::optional<coda::CachedResult>> TimedCache::fetch_many(
    const std::vector<std::string>& keys) {
  const auto start = Clock::now();
  auto r = inner_->fetch_many(keys);
  timers_->add("darr.fetch_many_s", since(start));
  return r;
}

bool TimedCache::claim(const std::string& key) {
  const auto start = Clock::now();
  const bool granted = inner_->claim(key);
  timers_->add("darr.claim_s", since(start));
  timers_->add(granted ? "darr.claim.granted" : "darr.claim.denied", 0.0);
  return granted;
}

void TimedCache::put(const std::string& key, const coda::CachedResult& result) {
  const auto start = Clock::now();
  inner_->put(key, result);
  timers_->add("darr.put_s", since(start));
}

void TimedCache::release(const std::string& key) {
  const auto start = Clock::now();
  inner_->release(key);
  timers_->add("darr.release_s", since(start));
}

}  // namespace perfbench
