// Sequential network container.
#pragma once

#include <memory>
#include <vector>

#include "src/nn/layer.h"
#include "src/obs/profiler.h"

namespace coda::nn {

/// A stack of layers applied in order. Copyable (deep copy via clone()).
/// Each layer's pass runs in the span-free profiler region
/// `nn.<layer name>.fwd` / `.bwd`, whose ids are interned when the layer
/// joins the network and shared by every layer of that kind.
class Sequential {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i);

  Matrix forward(const Matrix& input, bool training);
  Matrix backward(const Matrix& grad_output);

  /// All trainable tensors across layers.
  std::vector<ParamTensor*> parameters();

  void zero_grad();

  /// Total number of trainable scalars.
  std::size_t parameter_count();

 private:
  struct Regions {
    obs::prof::RegionId fwd;
    obs::prof::RegionId bwd;
  };

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Regions> regions_;  ///< parallel to layers_
};

}  // namespace coda::nn
