// Tests for the DARR client tier (DESIGN.md §13): the hash ring, the
// DarrClient's routing, replication and failover over a sharded cluster,
// the ResultCache contract at one and four shards, byte accounting against
// the fabric's own link counts, the lost-response rule (a granted claim
// stays held, a stored record stays stored) and abandon_all()'s
// heal-and-release retry passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/darr/client.h"
#include "src/darr/repository.h"
#include "src/darr/sharded.h"
#include "src/dist/sim_net.h"
#include "src/obs/metrics.h"

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

/// A small transfer budget: a lost leg gives up after one retry.
RetryPolicy tiny_retry() {
  RetryPolicy tiny;
  tiny.max_attempts = 2;
  tiny.initial_backoff_seconds = 0.01;
  tiny.deadline_seconds = 1.0;
  return tiny;
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
// The ResultCache contract, for two clients `a` and `b` of one repository,
// driven through the ResultCache surface only.

void exercise_protocol(ResultCache& a, ResultCache& b) {
  EXPECT_FALSE(a.fetch("k").has_value());
  EXPECT_TRUE(a.claim("k"));
  EXPECT_FALSE(b.claim("k"));  // live claim defends
  a.put("k", sample_result());
  const auto hit = b.fetch("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_score, 0.25);
  EXPECT_EQ(hit->fold_scores, sample_result().fold_scores);
  EXPECT_FALSE(b.claim("k"));  // record defends
  // fetch_many: one slot per key, order preserved.
  const auto many = b.fetch_many({"k", "missing"});
  ASSERT_EQ(many.size(), 2u);
  EXPECT_TRUE(many[0].has_value());
  EXPECT_FALSE(many[1].has_value());
  // release frees a held claim for a peer.
  EXPECT_TRUE(a.claim("k2"));
  a.release("k2");
  EXPECT_TRUE(b.claim("k2"));
}

// Cluster shapes {n_shards, replication}: {1, 1} is the paper's single
// repository, {4, 2} a sharded, replicated tier.
class DarrClientContract
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
 protected:
  dist::SimNet net;
  DarrCluster cluster{&net, {.n_shards = GetParam().first,
                             .replication = GetParam().second}};
};

TEST_P(DarrClientContract, ImplementsTheContract) {
  DarrClient a(&cluster, net.add_node("client0"));
  DarrClient b(&cluster, net.add_node("client1"));
  exercise_protocol(a, b);
  EXPECT_EQ(cluster.size(), 1u);  // replicas counted once
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

TEST_P(DarrClientContract, BytesAndNamesMatchTheFabric) {
  const std::vector<dist::NodeId> nodes = {net.add_node("client0"),
                                           net.add_node("client1")};
  // The node shards outlive any one test: compare deltas.
  std::vector<std::pair<std::size_t, std::size_t>> shard_bytes_before;
  for (const dist::NodeId node : nodes) {
    obs::MetricScope& scope = obs::MetricScope::for_node(net.node_name(node));
    shard_bytes_before.emplace_back(
        scope.counter("darr.client.bytes_sent").value(),
        scope.counter("darr.client.bytes_received").value());
  }
  DarrClient a(&cluster, nodes[0]);
  DarrClient b(&cluster, nodes[1]);
  exercise_protocol(a, b);

  const std::vector<const DarrClient*> clients = {&a, &b};
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const dist::NodeId node = nodes[c];
    const std::string& name = net.node_name(node);
    EXPECT_EQ(clients[c]->client_name(), name);
    std::size_t to_shards = 0;
    std::size_t from_shards = 0;
    for (std::size_t s = 0; s < cluster.n_shards(); ++s) {
      to_shards += net.link(node, cluster.node(s)).bytes;
      from_shards += net.link(cluster.node(s), node).bytes;
    }
    const auto stats = clients[c]->stats();
    EXPECT_GT(to_shards, 0u) << name;
    EXPECT_EQ(stats.bytes_sent, to_shards) << name;
    EXPECT_EQ(stats.bytes_received, from_shards) << name;
    // The client node's metric shard carries the same bytes.
    obs::MetricScope* scope = obs::MetricScope::find(name);
    ASSERT_NE(scope, nullptr) << name;
    EXPECT_EQ(scope->counter("darr.client.bytes_sent").value() -
                  shard_bytes_before[c].first,
              stats.bytes_sent)
        << name;
    EXPECT_EQ(scope->counter("darr.client.bytes_received").value() -
                  shard_bytes_before[c].second,
              stats.bytes_received)
        << name;
  }
  for (const std::size_t shard : cluster.owners("k")) {
    const auto record = cluster.shard(shard).fetch("k");
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->producer, net.node_name(nodes[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClusterShapes, DarrClientContract,
    ::testing::Values(std::make_pair(std::size_t{1}, std::size_t{1}),
                      std::make_pair(std::size_t{4}, std::size_t{2})),
    [](const auto& info) {
      return "shards" + std::to_string(info.param.first) + "_rf" +
             std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------------
// Sharded routing, replication and failover

TEST(DarrClient, ReplicatesRecordsAndLeasesToEveryOwner) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 4, .replication = 2});
  DarrClient client(&cluster, net.add_node("client0"));

  ASSERT_TRUE(client.claim("k"));
  const auto owners = cluster.owners("k");
  ASSERT_EQ(owners.size(), 2u);
  // The lease lives on both owners (claim replication): a second client
  // is denied regardless of which owner serves it.
  for (const std::size_t shard : owners) {
    EXPECT_FALSE(cluster.shard(shard).claim("k", "client1"))
        << "shard" << shard;
  }
  client.put("k", sample_result());
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

TEST(DarrClient, GroupedSweepCostsOneRoundTripPerShard) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 4, .replication = 1});
  const auto self = net.add_node("client0");
  DarrClient client(&cluster, self);

  std::vector<std::string> keys;
  std::set<std::size_t> serving;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("key" + std::to_string(i));
    serving.insert(cluster.owners(keys.back()).front());
  }
  const auto out = client.fetch_many(keys);
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

TEST(DarrClient, CrashedPrimaryFailsOverToReplica) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 4, .replication = 2});
  DarrClient client(&cluster, net.add_node("client0"));
  DarrClient peer(&cluster, net.add_node("peer"));

  const auto owners = cluster.owners("k");
  net.crash_node(cluster.node(owners[0]), net.now(), 1e9);

  ASSERT_TRUE(client.claim("k"));
  // Served by the surviving replica, which now defends the lease; the
  // sync back to the crashed primary is counted as failed, not hung.
  EXPECT_FALSE(cluster.shard(owners[1]).claim("k", "probe"));
  EXPECT_FALSE(peer.claim("k"));
  client.put("k", sample_result());
  EXPECT_TRUE(cluster.shard(owners[1]).fetch("k").has_value());
  EXPECT_FALSE(cluster.shard(owners[0]).fetch("k").has_value());
  EXPECT_TRUE(client.fetch("k").has_value());
  EXPECT_GE(cluster.sync_stats().failed_syncs, 2u);  // lease + record
}

TEST(DarrClient, AllOwnersDownThrowsNetworkError) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 2, .replication = 2});
  RetryPolicy tiny;
  tiny.max_attempts = 1;
  DarrClient client(&cluster, net.add_node("client0"), tiny);

  net.crash_node(cluster.node(0), net.now(), 1e9);
  net.crash_node(cluster.node(1), net.now(), 1e9);
  EXPECT_THROW(client.claim("k"), NetworkError);
  EXPECT_THROW((void)client.fetch("k"), NetworkError);
  EXPECT_THROW(client.fetch_many({"a", "b"}), NetworkError);
  EXPECT_THROW(client.put("k", sample_result()), NetworkError);
  EXPECT_THROW(client.release("k"), NetworkError);
  EXPECT_EQ(client.stats(), DarrClient::Stats{});
}

// ---------------------------------------------------------------------------
// Lost responses: a one-directional shard -> client partition lets every
// request land and apply, and loses only the response leg.

TEST(DarrClient, LostClaimResponseKeepsTheGrantedKeyHeld) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 4, .replication = 2});
  const auto self = net.add_node("client0");
  DarrClient client(&cluster, self, tiny_retry());
  DarrClient peer(&cluster, net.add_node("client1"), tiny_retry());
  const auto owners = cluster.owners("k");
  for (std::size_t s = 0; s < cluster.n_shards(); ++s) {
    net.partition(cluster.node(s), self, net.now(), 1e9);
  }

  EXPECT_THROW(client.claim("k"), NetworkError);
  // The primary granted the claim before its response was lost: the key
  // is tracked, the lease defends it, and the client did not fail over to
  // the replica (that would have asked for a second grant).
  EXPECT_EQ(client.held_claims(), std::vector<std::string>{"k"});
  EXPECT_FALSE(peer.claim("k"));
  EXPECT_EQ(net.link(self, cluster.node(owners[1])).messages, 0u);
  // Facts move only when an op returns.
  EXPECT_EQ(client.stats(), DarrClient::Stats{});

  net.heal_partitions();
  client.abandon_all();
  EXPECT_TRUE(client.held_claims().empty());
  EXPECT_TRUE(peer.claim("k"));
}

TEST(DarrClient, LostDenialFailsOverToTheNextOwner) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 4, .replication = 2});
  const auto self = net.add_node("client0");
  DarrClient client(&cluster, self, tiny_retry());
  DarrClient peer(&cluster, net.add_node("client1"), tiny_retry());
  const auto owners = cluster.owners("k");
  ASSERT_TRUE(peer.claim("k"));
  net.partition(cluster.node(owners[0]), self, net.now(), 1e9);

  // The primary's denial is lost; nothing was applied, so the replica is
  // asked and its (replicated-lease) denial arrives.
  EXPECT_FALSE(client.claim("k"));
  EXPECT_TRUE(client.held_claims().empty());
  const auto stats = client.stats();
  EXPECT_EQ(stats.claims_lost, 1u);
  // Bytes count only the owner that answered.
  const dist::NodeId replica = cluster.node(owners[1]);
  EXPECT_GT(net.link(self, cluster.node(owners[0])).bytes, 0u);
  EXPECT_EQ(stats.bytes_sent, net.link(self, replica).bytes);
  EXPECT_EQ(stats.bytes_received, net.link(replica, self).bytes);
}

TEST(DarrClient, LostPutResponseUntracksTheKeyAndKeepsTheRecord) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 4, .replication = 2});
  const auto self = net.add_node("client0");
  DarrClient client(&cluster, self, tiny_retry());
  DarrClient peer(&cluster, net.add_node("client1"), tiny_retry());
  const auto owners = cluster.owners("k");
  ASSERT_TRUE(client.claim("k"));
  for (std::size_t s = 0; s < cluster.n_shards(); ++s) {
    net.partition(cluster.node(s), self, net.now(), 1e9);
  }

  EXPECT_THROW(client.put("k", sample_result()), NetworkError);
  EXPECT_TRUE(client.held_claims().empty());
  EXPECT_EQ(client.stats().stores, 0u);
  // Stored on the primary and replicated; never re-sent to the replica.
  EXPECT_EQ(net.link(self, cluster.node(owners[1])).messages, 0u);
  const auto hit = peer.fetch("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_score, 0.25);
  for (const std::size_t shard : owners) {
    EXPECT_TRUE(cluster.shard(shard).fetch("k").has_value());
  }
}

TEST(DarrClient, LostSweepResponseLeavesThatShardsKeysMissing) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 2, .replication = 1});
  const auto self = net.add_node("client0");
  DarrClient client(&cluster, self, tiny_retry());
  // One stored key per shard.
  std::vector<std::string> keys(2);
  for (int i = 0; keys[0].empty() || keys[1].empty(); ++i) {
    const std::string key = "key" + std::to_string(i);
    std::string& slot = keys[cluster.owners(key).front()];
    if (slot.empty()) slot = key;
  }
  for (const auto& key : keys) client.put(key, sample_result());
  const auto before = client.stats();
  net.partition(cluster.node(0), self, net.now(), 1e9);

  const auto out = client.fetch_many(keys);
  ASSERT_EQ(out.size(), 2u);
  // shard0 found its key, but the answer never arrived.
  EXPECT_FALSE(out[0].has_value());
  EXPECT_TRUE(out[1].has_value());
  const auto stats = client.stats();
  EXPECT_EQ(stats.lookups - before.lookups, 2u);
  EXPECT_EQ(stats.hits - before.hits, 1u);
}

// ---------------------------------------------------------------------------
// abandon_all: release retried once the partition heals

TEST(DarrClient, AbandonAllReleasesClaimsOnceThePartitionHeals) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 1, .replication = 1});
  DarrRepository& repo = cluster.shard(0);
  const auto repo_node = cluster.node(0);
  const auto self = net.add_node("client0");
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_seconds = 0.2;
  retry.multiplier = 2.0;
  retry.max_backoff_seconds = 1.0;
  retry.jitter_fraction = 0.0;
  retry.deadline_seconds = 8.0;
  DarrClient client(&cluster, self, retry);

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
  const auto self = net.add_node("client0");
  DarrClient client(&cluster, self, tiny_retry());

  ASSERT_TRUE(client.claim("k"));
  net.partition(self, repo_node, net.now(), 1e9);  // never heals
  client.abandon_all();
  // Still tracked for a later call; the repository-side lease will
  // expire via TTL for peers either way.
  EXPECT_EQ(client.held_claims(), std::vector<std::string>{"k"});
}

}  // namespace
}  // namespace coda::darr
