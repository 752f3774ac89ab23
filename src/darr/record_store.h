// The RecordStore interface: the one repository surface every DARR consumer
// talks to (DESIGN.md §13). ShardedDarrService (src/darr/sharded.h)
// implements it over a consistent-hash ring of replicated shard nodes — a
// single repository is the 1-shard ring — and tests inject in-memory
// fakes. DarrClient, CooperativeFetch and the eval engine never know how
// many nodes are behind the surface. The shard-side DarrRepository uses
// the same verbs, and so do the spans, retry ops and errors of every
// operation (`darr.client.<op>`, `darr.repo.<op>`, `net.darr.<op>`,
// `darr.sync.<op>`).
//
// The five operations mirror the ResultCache contract one level down, in
// repository terms (DarrRecord + explicit client identity):
//
//   fetch / fetch_many  — read records; a miss means the key may be claimed.
//   claim               — lease the key for `client`; false = a peer holds
//                         a live claim (or the record already exists).
//   put                 — publish a record, releasing its key's claim.
//   release             — drop `client`'s claim without publishing.
//
// Every operation reports its traffic through a Wire out-param so callers
// (DarrClient) account bytes without knowing the topology.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/darr/record.h"

namespace coda::darr {

/// Per-operation traffic/outcome accounting, filled in progressively so it
/// is meaningful even when the operation throws NetworkError mid-flight.
struct Wire {
  std::size_t bytes_sent = 0;      ///< client -> store request bytes
  std::size_t bytes_received = 0;  ///< store -> client response bytes
  /// The state change was applied store-side even if the response leg was
  /// lost past the retry budget (claim granted / record stored / claim
  /// released before the NetworkError): callers must track held claims
  /// whenever this is true, or a crashed response wedges the key until
  /// its lease TTL.
  bool applied = false;
};

/// Request framing shared by every RecordStore implementation: a key plus
/// a fixed 16-byte message envelope (also the size of an empty response).
constexpr std::size_t kMessageOverhead = 16;
inline std::size_t key_request_size(const std::string& key) {
  return key.size() + kMessageOverhead;
}

/// The unified repository surface. Implementations must be safe to call
/// from multiple evaluator threads.
class RecordStore {
 public:
  virtual ~RecordStore() = default;

  /// Returns the record for `key`, if any client has published one.
  virtual std::optional<DarrRecord> fetch(const std::string& key,
                                          Wire& wire) = 0;

  /// Batch fetch: element i answers keys[i]. The default loops fetch();
  /// networked stores override it to answer the evaluator's initial sweep
  /// in one round-trip per serving node instead of one per key.
  virtual std::vector<std::optional<DarrRecord>> fetch_many(
      const std::vector<std::string>& keys, Wire& wire);

  /// Leases `key` for `client`. False = a live foreign claim (or an
  /// already-stored record) — the caller must not compute the key.
  virtual bool claim(const std::string& key, const std::string& client,
                     Wire& wire) = 0;

  /// Publishes `record` and releases its key's claim.
  virtual void put(DarrRecord record, Wire& wire) = 0;

  /// Releases `client`'s claim on `key` without publishing.
  virtual void release(const std::string& key, const std::string& client,
                       Wire& wire) = 0;

  /// Distinct records stored behind this surface (replicas counted once).
  virtual std::size_t n_records() const = 0;
};

}  // namespace coda::darr
