// Tests for the RecordStore surface (DESIGN.md §13): the hash ring, the
// sharded cluster's routing/replication/failover, RecordStore
// substitutability (the sharded service at one and four shards and a test
// fake behind one interface), and the DarrClient behaviours
// that ride on it — claim tracking across lost responses and
// abandon_all()'s heal-and-release retry passes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/darr/client.h"
#include "src/darr/record_store.h"
#include "src/darr/repository.h"
#include "src/darr/sharded.h"
#include "src/dist/retry.h"
#include "src/dist/sim_net.h"

namespace coda::darr {
namespace {

DarrRecord sample_record(const std::string& key) {
  DarrRecord r;
  r.key = key;
  r.mean_score = 0.25;
  r.stddev = 0.05;
  r.fold_scores = {0.2, 0.3};
  r.explanation = "standardscaler -> linearregression";
  r.producer = "client0";
  return r;
}

CachedResult sample_result() {
  CachedResult r;
  r.mean_score = 0.25;
  r.stddev = 0.05;
  r.fold_scores = {0.2, 0.3};
  r.explanation = "standardscaler -> linearregression";
  return r;
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRing, OwnersAreDeterministicAndDistinct) {
  const HashRing a(5, 3, 32);
  const HashRing b(5, 3, 32);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "fp|candidate" + std::to_string(i) + "|cv|rmse";
    const auto owners = a.owners(key);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners, b.owners(key)) << key;  // pure function of the key
    std::set<std::size_t> distinct(owners.begin(), owners.end());
    EXPECT_EQ(distinct.size(), owners.size()) << key;
    for (const std::size_t shard : owners) EXPECT_LT(shard, 5u);
  }
}

TEST(HashRing, ReplicationClampedToShardCount) {
  const HashRing ring(2, 5, 16);
  EXPECT_EQ(ring.replication(), 2u);
  EXPECT_EQ(ring.owners("k").size(), 2u);
}

TEST(HashRing, SpreadsKeysAcrossShards) {
  const HashRing ring(4, 1, 64);
  std::map<std::size_t, std::size_t> load;
  const std::size_t n_keys = 1000;
  for (std::size_t i = 0; i < n_keys; ++i) {
    load[ring.owners("key" + std::to_string(i)).front()]++;
  }
  // Every shard serves a non-trivial slice: no empty shard, none holding
  // more than half the keyspace (ideal is 250 each).
  ASSERT_EQ(load.size(), 4u);
  for (const auto& [shard, count] : load) {
    EXPECT_GT(count, n_keys / 10) << "shard" << shard;
    EXPECT_LT(count, n_keys / 2) << "shard" << shard;
  }
}

// ---------------------------------------------------------------------------
// RecordStore substitutability: the same protocol sequence behaves
// identically against every implementation.

// Minimal in-memory fake: what a unit test of evaluator cooperation would
// inject instead of a networked topology.
class FakeRecordStore final : public RecordStore {
 public:
  std::optional<DarrRecord> fetch(const std::string& key,
                                  Wire& wire) override {
    wire.bytes_sent += key_request_size(key);
    const auto it = records_.find(key);
    if (it == records_.end()) return std::nullopt;
    wire.bytes_received += it->second.wire_size();
    return it->second;
  }
  bool claim(const std::string& key, const std::string& client,
             Wire& wire) override {
    if (records_.count(key) || claims_.count(key)) return false;
    claims_[key] = client;
    wire.applied = true;
    return true;
  }
  void put(DarrRecord record, Wire& wire) override {
    wire.applied = true;
    claims_.erase(record.key);
    records_[record.key] = std::move(record);
  }
  void release(const std::string& key, const std::string& client,
               Wire& wire) override {
    wire.applied = true;
    const auto it = claims_.find(key);
    if (it != claims_.end() && it->second == client) claims_.erase(it);
  }
  std::size_t n_records() const override { return records_.size(); }

 private:
  std::map<std::string, DarrRecord> records_;
  std::map<std::string, std::string> claims_;
};

void exercise_protocol(RecordStore& store) {
  Wire wire;
  EXPECT_FALSE(store.fetch("k", wire).has_value());
  EXPECT_TRUE(store.claim("k", "client0", wire));
  EXPECT_FALSE(store.claim("k", "client1", wire));  // live claim defends
  store.put(sample_record("k"), wire);
  const auto hit = store.fetch("k", wire);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_score, 0.25);
  EXPECT_FALSE(store.claim("k", "client1", wire));  // record defends
  EXPECT_EQ(store.n_records(), 1u);
  // fetch_many default: one slot per key, order preserved.
  const auto many = store.fetch_many({"k", "missing"}, wire);
  ASSERT_EQ(many.size(), 2u);
  EXPECT_TRUE(many[0].has_value());
  EXPECT_FALSE(many[1].has_value());
  // release without a held claim is a no-op; with one, it frees the key.
  EXPECT_TRUE(store.claim("k2", "client0", wire));
  store.release("k2", "client0", wire);
  EXPECT_TRUE(store.claim("k2", "client1", wire));
}

TEST(RecordStore, FakeImplementsTheContract) {
  FakeRecordStore fake;
  exercise_protocol(fake);
}

// Cluster shapes {n_shards, replication}: {1, 1} is the paper's single
// repository, {4, 2} a sharded, replicated tier.
class ShardedServiceContract
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(ShardedServiceContract, ImplementsTheContract) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = GetParam().first,
                             .replication = GetParam().second});
  ShardedDarrService service(&cluster, net.add_node("client"));
  exercise_protocol(service);
  // Every owner shard holds the state the protocol left, and its
  // repository speaks the same fetch/claim/put/release verbs (with one
  // shard, that repository is the paper's single DARR).
  for (const std::size_t shard : cluster.owners("k")) {
    EXPECT_TRUE(cluster.shard(shard).fetch("k").has_value());
    EXPECT_FALSE(cluster.shard(shard).claim("k", "client2"));
  }
  for (const std::size_t shard : cluster.owners("k2")) {
    DarrRepository& repo = cluster.shard(shard);
    EXPECT_FALSE(repo.claim("k2", "client2"));  // client1's replicated lease
    repo.release("k2", "client1");
    EXPECT_TRUE(repo.claim("k2", "client2"));
    repo.put(sample_record("k2"));
    EXPECT_TRUE(repo.fetch("k2").has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClusterShapes, ShardedServiceContract,
    ::testing::Values(std::make_pair(std::size_t{1}, std::size_t{1}),
                      std::make_pair(std::size_t{4}, std::size_t{2})),
    [](const auto& info) {
      return "shards" + std::to_string(info.param.first) + "_rf" +
             std::to_string(info.param.second);
    });

TEST(RecordStore, DarrClientWorksOverAnyStore) {
  FakeRecordStore fake;
  DarrClient client(&fake, "client0");
  EXPECT_FALSE(client.fetch("k").has_value());
  EXPECT_TRUE(client.claim("k"));
  client.put("k", sample_result());
  ASSERT_TRUE(client.fetch("k").has_value());
  EXPECT_TRUE(client.held_claims().empty());
  const auto stats = client.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.claims_won, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

// ---------------------------------------------------------------------------
// Sharded routing and replication

TEST(ShardedDarr, ReplicatesRecordsAndLeasesToEveryOwner) {
  dist::SimNet net;
  DarrCluster::Config config;
  config.n_shards = 4;
  config.replication = 2;
  DarrCluster cluster(&net, config);
  const auto self = net.add_node("client");
  ShardedDarrService service(&cluster, self, RetryPolicy{});

  Wire wire;
  ASSERT_TRUE(service.claim("k", "client0", wire));
  const auto owners = cluster.owners("k");
  ASSERT_EQ(owners.size(), 2u);
  // The lease lives on both owners (claim replication): a second client
  // is denied regardless of which owner serves it.
  for (const std::size_t shard : owners) {
    EXPECT_FALSE(cluster.shard(shard).claim("k", "client1"))
        << "shard" << shard;
  }
  service.put(sample_record("k"), wire);
  for (const std::size_t shard : owners) {
    EXPECT_TRUE(cluster.shard(shard).fetch("k").has_value())
        << "shard" << shard;
  }
  // Non-owners never see the key.
  for (std::size_t shard = 0; shard < cluster.n_shards(); ++shard) {
    if (std::find(owners.begin(), owners.end(), shard) == owners.end()) {
      EXPECT_FALSE(cluster.shard(shard).fetch("k").has_value())
          << "shard" << shard;
    }
  }
  EXPECT_EQ(cluster.size(), 1u);  // replicas counted once
  const auto sync = cluster.sync_stats();
  EXPECT_EQ(sync.failed_syncs, 0u);
  EXPECT_EQ(sync.replica_syncs, 2u);  // one lease sync + one record sync
  EXPECT_GT(sync.bytes_shipped, 0u);
}

TEST(ShardedDarr, GroupedSweepCostsOneRoundTripPerShard) {
  dist::SimNet net;
  DarrCluster::Config config;
  config.n_shards = 4;
  config.replication = 1;
  DarrCluster cluster(&net, config);
  const auto self = net.add_node("client");
  ShardedDarrService service(&cluster, self, RetryPolicy{});

  std::vector<std::string> keys;
  std::set<std::size_t> serving;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("key" + std::to_string(i));
    serving.insert(cluster.owners(keys.back()).front());
  }
  Wire wire;
  const auto out = service.fetch_many(keys, wire);
  EXPECT_EQ(out.size(), keys.size());
  // One request+response message pair per shard that serves keys — not
  // one per key.
  std::size_t messages = 0;
  for (std::size_t s = 0; s < cluster.n_shards(); ++s) {
    messages += net.link(self, cluster.node(s)).messages;
    messages += net.link(cluster.node(s), self).messages;
  }
  EXPECT_EQ(messages, 2 * serving.size());
}

TEST(ShardedDarr, CrashedPrimaryFailsOverToReplica) {
  dist::SimNet net;
  DarrCluster::Config config;
  config.n_shards = 4;
  config.replication = 2;
  DarrCluster cluster(&net, config);
  const auto self = net.add_node("client");
  ShardedDarrService service(&cluster, self, RetryPolicy{});

  const auto owners = cluster.owners("k");
  net.crash_node(cluster.node(owners[0]), net.now(), 1e9);

  Wire wire;
  ASSERT_TRUE(service.claim("k", "client0", wire));
  // Served by the surviving replica, which now defends the lease; the
  // sync back to the crashed primary is counted as failed, not hung.
  EXPECT_FALSE(cluster.shard(owners[1]).claim("k", "probe"));
  Wire peer_wire;
  EXPECT_FALSE(service.claim("k", "peer", peer_wire));
  service.put(sample_record("k"), wire);
  EXPECT_TRUE(cluster.shard(owners[1]).fetch("k").has_value());
  EXPECT_FALSE(cluster.shard(owners[0]).fetch("k").has_value());
  EXPECT_TRUE(service.fetch("k", wire).has_value());
  EXPECT_GE(cluster.sync_stats().failed_syncs, 2u);  // lease + record
}

TEST(ShardedDarr, AllOwnersDownThrowsNetworkError) {
  dist::SimNet net;
  DarrCluster::Config config;
  config.n_shards = 2;
  config.replication = 2;
  DarrCluster cluster(&net, config);
  const auto self = net.add_node("client");
  RetryPolicy tiny;
  tiny.max_attempts = 1;
  ShardedDarrService service(&cluster, self, tiny);

  net.crash_node(cluster.node(0), net.now(), 1e9);
  net.crash_node(cluster.node(1), net.now(), 1e9);
  Wire wire;
  EXPECT_THROW(service.claim("k", "client0", wire), NetworkError);
  EXPECT_THROW((void)service.fetch("k", wire), NetworkError);
  EXPECT_THROW(service.fetch_many({"a", "b"}, wire), NetworkError);
}

// ---------------------------------------------------------------------------
// abandon_all: release retried once the partition heals

TEST(DarrClient, AbandonAllReleasesClaimsOnceThePartitionHeals) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 1, .replication = 1});
  DarrRepository& repo = cluster.shard(0);
  const auto repo_node = cluster.node(0);
  const auto self = net.add_node("client");
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_seconds = 0.2;
  retry.multiplier = 2.0;
  retry.max_backoff_seconds = 1.0;
  retry.jitter_fraction = 0.0;
  retry.deadline_seconds = 8.0;
  ShardedDarrService service(&cluster, self, retry);
  DarrClient client(&service, "client0", retry);

  ASSERT_TRUE(client.claim("k1"));
  ASSERT_TRUE(client.claim("k2"));

  // Partition the repository for a window longer than one release's inner
  // backoff budget (0.2 + 0.4 + 0.8 = 1.4 simulated seconds) but short
  // enough that the accumulated backoff of the failing releases walks the
  // logical clock past its end — the fix under test: abandon_all()'s
  // outer passes re-try keys whose release exhausted its budget, and the
  // partition has healed by the time they run.
  net.partition(self, repo_node, net.now(), 2.5);
  net.partition(repo_node, self, net.now(), 2.5);

  client.abandon_all();

  EXPECT_TRUE(client.held_claims().empty());
  // Both keys are free again: a peer can claim them immediately instead
  // of waiting out the TTL.
  EXPECT_TRUE(repo.claim("k1", "peer"));
  EXPECT_TRUE(repo.claim("k2", "peer"));
}

TEST(DarrClient, AbandonAllKeepsUnreachableClaimsTracked) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 1, .replication = 1});
  const auto repo_node = cluster.node(0);
  const auto self = net.add_node("client");
  RetryPolicy tiny;
  tiny.max_attempts = 2;
  tiny.initial_backoff_seconds = 0.01;
  tiny.deadline_seconds = 1.0;
  ShardedDarrService service(&cluster, self, tiny);
  DarrClient client(&service, "client0", tiny);

  ASSERT_TRUE(client.claim("k"));
  net.partition(self, repo_node, net.now(), 1e9);  // never heals
  client.abandon_all();
  // Still tracked for a later call; the repository-side lease will
  // expire via TTL for peers either way.
  EXPECT_EQ(client.held_claims(), std::vector<std::string>{"k"});
}

}  // namespace
}  // namespace coda::darr
