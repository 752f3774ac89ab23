#include "src/nn/sequential.h"

namespace coda::nn {

Sequential::Sequential(const Sequential& other) : regions_(other.regions_) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this != &other) {
    Sequential copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  require(layer != nullptr, "Sequential: null layer");
  const std::string prefix = "nn." + layer->name();
  regions_.push_back({obs::prof::intern(prefix + ".fwd"),
                      obs::prof::intern(prefix + ".bwd")});
  layers_.push_back(std::move(layer));
  return *this;
}

Layer& Sequential::layer(std::size_t i) {
  require(i < layers_.size(), "Sequential: layer index out of range");
  return *layers_[i];
}

Matrix Sequential::forward(const Matrix& input, bool training) {
  require_state(!layers_.empty(), "Sequential: no layers");
  Matrix current = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const obs::Region region(regions_[i].fwd);
    current = layers_[i]->forward(current, training);
  }
  return current;
}

Matrix Sequential::backward(const Matrix& grad_output) {
  require_state(!layers_.empty(), "Sequential: no layers");
  Matrix grad = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const obs::Region region(regions_[i].bwd);
    grad = layers_[i]->backward(grad);
  }
  return grad;
}

std::vector<ParamTensor*> Sequential::parameters() {
  std::vector<ParamTensor*> params;
  for (auto& l : layers_) {
    for (ParamTensor* p : l->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::zero_grad() {
  for (ParamTensor* p : parameters()) p->zero_grad();
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (ParamTensor* p : parameters()) n += p->value.size();
  return n;
}

}  // namespace coda::nn
