#include "src/dist/remote_service.h"

#include "src/dist/retry.h"
#include "src/obs/obs.h"

namespace coda::dist {

RemoteModelService::RemoteModelService(SimNet* net, NodeId self,
                                       std::unique_ptr<Estimator> model,
                                       RetryPolicy retry)
    : net_(net),
      self_(self),
      model_(std::move(model)),
      retry_(retry),
      facts_{node_scope(net, self)} {
  require(model_ != nullptr, "RemoteModelService: null dependency");
  retry_.validate();
}

void RemoteModelService::fit(NodeId caller, const Matrix& X,
                             const std::vector<double>& y) {
  obs::Region span(obs::region_id<"remote.fit">(), obs::kTraced);
  span.set_node(net_->node_name(self_));
  const std::size_t request =
      matrix_bytes(X) + y.size() * sizeof(double) + 16;
  transfer_with_retry(*net_, caller, self_, request, retry_, "remote.fit");
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    model_->fit(X, y);
  }
  transfer_with_retry(*net_, self_, caller, 16, retry_, "remote.fit");  // ack
  facts_.fit_calls.inc();
  facts_.bytes_in.inc(request);
  facts_.bytes_out.inc(16);
}

std::vector<double> RemoteModelService::predict(NodeId caller,
                                                const Matrix& X) {
  obs::Region span(obs::region_id<"remote.predict">(), obs::kTraced);
  span.set_node(net_->node_name(self_));
  const std::size_t request = matrix_bytes(X);
  transfer_with_retry(*net_, caller, self_, request, retry_,
                      "remote.predict");
  std::vector<double> predictions;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    predictions = model_->predict(X);
  }
  const std::size_t response = predictions.size() * sizeof(double) + 16;
  transfer_with_retry(*net_, self_, caller, response, retry_,
                      "remote.predict");
  facts_.predict_calls.inc();
  facts_.bytes_in.inc(request);
  facts_.bytes_out.inc(response);
  return predictions;
}

RemoteModelService::CallStats RemoteModelService::stats() const {
  CallStats out;
  out.fit_calls = facts_.fit_calls.value();
  out.predict_calls = facts_.predict_calls.value();
  out.bytes_in = facts_.bytes_in.value();
  out.bytes_out = facts_.bytes_out.value();
  return out;
}

}  // namespace coda::dist
