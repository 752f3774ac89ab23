// Tests for the Data Analytics Results Repository (Fig 2): record
// serialization, claim lifecycle incl. TTL expiry (failure injection for a
// crashed claimant), prefix listing, and the network-accounted client over
// a single-shard cluster.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/darr/client.h"
#include "src/darr/repository.h"
#include "src/darr/sharded.h"

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

TEST(DarrRecord, SerializeRoundTrip) {
  const auto r = sample_record("fp|spec|cv|rmse");
  const auto decoded = DarrRecord::deserialize(r.serialize());
  EXPECT_EQ(decoded, r);
}

TEST(DarrRecord, WireSizeMatchesSerialized) {
  const auto r = sample_record("k");
  EXPECT_EQ(r.wire_size(), r.serialize().size());
}

TEST(DarrRecord, CorruptBufferRejected) {
  auto bytes = sample_record("k").serialize();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(DarrRecord::deserialize(bytes), DecodeError);
  bytes = sample_record("k").serialize();
  bytes.push_back(0);  // trailing garbage
  EXPECT_THROW(DarrRecord::deserialize(bytes), DecodeError);
}

TEST(DarrRepository, LookupStoreFlow) {
  DarrRepository repo;
  EXPECT_FALSE(repo.fetch("k").has_value());
  repo.put(sample_record("k"), 1.5);
  const auto hit = repo.fetch("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_score, 0.25);
  EXPECT_DOUBLE_EQ(hit->stored_at, 1.5);
  EXPECT_EQ(repo.size(), 1u);
  const auto counters = repo.counters();
  EXPECT_EQ(counters.lookups, 2u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.stores, 1u);
}

TEST(DarrRepository, ClaimBlocksOthersUntilStore) {
  DarrRepository repo;
  EXPECT_TRUE(repo.claim("k", "alice"));
  EXPECT_FALSE(repo.claim("k", "bob"));
  EXPECT_TRUE(repo.claim("k", "alice"));  // idempotent re-claim
  repo.put(sample_record("k"));
  // Once stored, claims are denied — the result exists, go look it up.
  EXPECT_FALSE(repo.claim("k", "bob"));
  EXPECT_FALSE(repo.claim("k", "alice"));
}

TEST(DarrRepository, AbandonReleasesClaim) {
  DarrRepository repo;
  EXPECT_TRUE(repo.claim("k", "alice"));
  repo.release("k", "alice");
  EXPECT_TRUE(repo.claim("k", "bob"));
  // Abandoning someone else's claim is a no-op.
  repo.release("k", "mallory");
  EXPECT_FALSE(repo.claim("k", "carol"));
}

TEST(DarrRepository, ExpiredClaimIsStolen) {
  // Failure injection: the claimant "crashes" and its claim times out.
  DarrRepository::Config cfg;
  cfg.claim_ttl_ms = 20;
  DarrRepository repo(cfg);
  EXPECT_TRUE(repo.claim("k", "dead_client"));
  EXPECT_FALSE(repo.claim("k", "bob"));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(repo.claim("k", "bob"));  // stolen after TTL
  EXPECT_GE(repo.counters().claims_expired, 1u);
}

TEST(DarrRepository, PrefixListing) {
  DarrRepository repo;
  repo.put(sample_record("fpA|spec1"));
  repo.put(sample_record("fpA|spec2"));
  repo.put(sample_record("fpB|spec1"));
  const auto keys = repo.keys_with_prefix("fpA|");
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_EQ(repo.keys_with_prefix("fpC").size(), 0u);
}

TEST(DarrRepository, RecordsByProducer) {
  DarrRepository repo;
  auto r1 = sample_record("k1");
  r1.producer = "alice";
  auto r2 = sample_record("k2");
  r2.producer = "bob";
  auto r3 = sample_record("k3");
  r3.producer = "alice";
  repo.put(r1);
  repo.put(r2);
  repo.put(r3);
  EXPECT_EQ(repo.records_by("alice"), 2u);
  EXPECT_EQ(repo.records_by("bob"), 1u);
  EXPECT_EQ(repo.records_by("carol"), 0u);
}

TEST(DarrRepository, EmptyKeyRejected) {
  DarrRepository repo;
  DarrRecord r;
  EXPECT_THROW(repo.put(r), InvalidArgument);
}

// A client of the paper's one shared repository: a single-shard,
// unreplicated cluster.
struct ClientFixture : ::testing::Test {
  dist::SimNet net;
  DarrCluster cluster{&net, {.n_shards = 1, .replication = 1}};
  DarrRepository& repo = cluster.shard(0);
  dist::NodeId repo_node = cluster.node(0);
  dist::NodeId client_node = net.add_node("c0");
  DarrClient client{&cluster, client_node};
};

TEST_F(ClientFixture, ImplementsResultCacheContract) {
  EXPECT_FALSE(client.fetch("k").has_value());
  EXPECT_TRUE(client.claim("k"));
  CachedResult result;
  result.mean_score = 0.5;
  result.fold_scores = {0.4, 0.6};
  result.explanation = "spec";
  client.put("k", result);
  const auto hit = client.fetch("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_score, 0.5);
  EXPECT_EQ(hit->fold_scores, result.fold_scores);
  EXPECT_EQ(hit->explanation, "spec");
}

TEST_F(ClientFixture, TracksStatsAndTraffic) {
  client.fetch("k");
  client.claim("k");
  CachedResult r;
  r.explanation = "spec";
  client.put("k", r);
  client.fetch("k");
  const auto stats = client.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.claims_won, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  // Every interaction crossed the simulated network.
  EXPECT_EQ(net.link(client_node, repo_node).messages, 4u);
  EXPECT_EQ(net.link(repo_node, client_node).messages, 4u);
}

TEST_F(ClientFixture, RecordCarriesProducerName) {
  CachedResult r;
  r.explanation = "spec";
  client.put("k", r);
  EXPECT_EQ(repo.records_by("c0"), 1u);
}

TEST(DarrClient, ConstructionValidated) {
  dist::SimNet net;
  DarrCluster cluster(&net, {.n_shards = 1, .replication = 1});
  // A client cannot sit on the repository's own node.
  EXPECT_THROW(DarrClient(&cluster, cluster.node(0)), InvalidArgument);
  EXPECT_THROW(DarrClient(nullptr, net.add_node("c")), InvalidArgument);
  // An id the fabric never issued names no node.
  EXPECT_THROW(DarrClient(&cluster, dist::NodeId{99}), InvalidArgument);
}

}  // namespace
}  // namespace coda::darr
