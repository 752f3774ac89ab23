#include "src/darr/record_store.h"

namespace coda::darr {

std::vector<std::optional<DarrRecord>> RecordStore::fetch_many(
    const std::vector<std::string>& keys, Wire& wire) {
  std::vector<std::optional<DarrRecord>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(fetch(key, wire));
  return out;
}

}  // namespace coda::darr
