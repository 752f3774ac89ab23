// AI web service node (Fig 1): a remote model endpoint reached over the
// simulated network with HTTP-like request/response accounting — the
// architectural role of IBM Watson / Azure / AWS / Google Cloud AI in the
// paper, reproduced as the documented substitution (DESIGN.md §2).
#pragma once

#include <memory>
#include <mutex>

#include "src/core/component.h"
#include "src/dist/sim_net.h"
#include "src/obs/metrics.h"
#include "src/util/retry.h"

namespace coda::dist {

/// A fit/predict service wrapping any Estimator behind a network boundary.
/// Callers pay request+response bytes per invocation, like an HTTP ML API.
/// Thread-safe: concurrent evaluator threads may call fit/predict through
/// their RemoteEstimators — call accounting lives in atomic per-instance
/// counts and the hosted model is serialized behind a mutex. Transfers
/// retry under the service's RetryPolicy and throw NetworkError once the
/// budget is spent (the evaluation engine then marks
/// that candidate failed instead of hanging the search).
class RemoteModelService {
 public:
  /// Point-in-time snapshot of this service's own counts of its facts.
  struct CallStats {
    std::size_t fit_calls = 0;
    std::size_t predict_calls = 0;
    std::size_t bytes_in = 0;   // at the service
    std::size_t bytes_out = 0;  // back to clients
  };

  RemoteModelService(SimNet* net, NodeId self,
                     std::unique_ptr<Estimator> model,
                     RetryPolicy retry = {});

  NodeId node_id() const { return self_; }

  /// Trains the hosted model on the shipped dataset; the caller pays the
  /// serialized data size plus a small response ack.
  void fit(NodeId caller, const Matrix& X, const std::vector<double>& y);

  /// Scores shipped rows; the caller pays X in one direction and the
  /// predictions in the other.
  std::vector<double> predict(NodeId caller, const Matrix& X);

  CallStats stats() const;

  /// Wire size of a shipped matrix (doubles + shape framing).
  static std::size_t matrix_bytes(const Matrix& m) {
    return m.size() * sizeof(double) + 16;
  }

 private:
  /// The `remote.*` facts: each inc() moves this service's own count (the
  /// stats() view), the process-wide family and the service node's shard.
  /// Atomic, so concurrent callers need no stats lock.
  struct Facts {
    obs::MetricScope& node;
    obs::FactCounter fit_calls{node, "remote.fit.calls"};
    obs::FactCounter predict_calls{node, "remote.predict.calls"};
    obs::FactCounter bytes_in{node, "remote.bytes_in"};
    obs::FactCounter bytes_out{node, "remote.bytes_out"};
  };

  SimNet* net_;
  NodeId self_;
  std::unique_ptr<Estimator> model_;
  RetryPolicy retry_;
  std::mutex model_mutex_;  // one hosted model, many calling threads
  Facts facts_;
};

/// Estimator adapter that forwards fit/predict to a RemoteModelService —
/// lets a remote endpoint participate in a Transformer-Estimator Graph as
/// the terminal stage ("these Web services complement the machine learning
/// capabilities at the clients and cloud analytics servers").
class RemoteEstimator final : public Estimator {
 public:
  RemoteEstimator(RemoteModelService* service, NodeId caller)
      : Estimator("remote_" + std::to_string(service->node_id())),
        service_(service),
        caller_(caller) {}

  void fit(const Matrix& X, const std::vector<double>& y) override {
    service_->fit(caller_, X, y);
    fitted_ = true;
  }

  std::vector<double> predict(const Matrix& X) const override {
    require_state(fitted_, "RemoteEstimator: call fit() first");
    return service_->predict(caller_, X);
  }

  std::unique_ptr<Component> clone() const override {
    // Clones share the remote endpoint (it is the service that holds the
    // model); each clone must still fit before predicting.
    auto copy = std::make_unique<RemoteEstimator>(service_, caller_);
    return copy;
  }

 private:
  RemoteModelService* service_;
  NodeId caller_;
  bool fitted_ = false;
};

}  // namespace coda::dist
