// Tests for the Vertexica core: graph tables, the worker UDF, the
// coordinator superstep loop, and the §2.3 optimizations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "exec/frontier.h"
#include "exec/merge_join.h"
#include "exec/parallel.h"
#include "graphgen/generators.h"
#include "storage/csr_index.h"
#include "storage/partition.h"
#include "storage/sort.h"
#include "vertexica/coordinator.h"
#include "vertexica/graph_tables.h"
#include "vertexica/union_input.h"
#include "vertexica/worker.h"

namespace vertexica {
namespace {

// A tiny weighted digraph used across tests:
//   0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 2 -> 3 (1), 1 -> 3 (7)
Graph Diamond() {
  Graph g;
  g.num_vertices = 4;
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 4.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(1, 3, 7.0);
  return g;
}

TEST(GraphTablesTest, SchemasMatchPaperLayout) {
  Schema v = MakeVertexSchema(2);
  EXPECT_EQ(v.num_fields(), 4);  // id, halted, v0, v1
  EXPECT_EQ(v.field(0).name, "id");
  EXPECT_EQ(v.field(1).name, "halted");
  Schema e = MakeEdgeSchema();
  EXPECT_EQ(e.num_fields(), 3);  // src, dst, weight
  Schema m = MakeMessageSchema(1);
  EXPECT_EQ(m.num_fields(), 3);  // src (sender), dst (receiver), m0
  Schema u = MakeUnionSchema(2);
  EXPECT_EQ(u.num_fields(), 6);  // id, kind, other, halted, p0, p1
}

TEST(GraphTablesTest, LoadCreatesThreeTables) {
  Catalog cat;
  PageRankProgram program(3);
  ASSERT_TRUE(LoadGraphTables(&cat, Diamond(), program).ok());
  EXPECT_EQ(*cat.RowCount("vertex"), 4);
  EXPECT_EQ(*cat.RowCount("edge"), 5);
  EXPECT_EQ(*cat.RowCount("message"), 0);
  auto vertex = *cat.GetTable("vertex");
  // Initial rank = 1/N, halted = false.
  EXPECT_DOUBLE_EQ(vertex->ColumnByName("v0")->GetDouble(0), 0.25);
  EXPECT_FALSE(vertex->ColumnByName("halted")->GetBool(0));
  auto edge = *cat.GetTable("edge");
  EXPECT_DOUBLE_EQ(edge->ColumnByName("weight")->GetDouble(1), 4.0);
}

TEST(GraphTablesTest, ReadVertexValuesDense) {
  Catalog cat;
  ShortestPathProgram program(0);
  ASSERT_TRUE(LoadGraphTables(&cat, Diamond(), program).ok());
  auto vals = ReadVertexValues(cat, {});
  ASSERT_TRUE(vals.ok());
  ASSERT_EQ(vals->size(), 4u);
  EXPECT_DOUBLE_EQ((*vals)[0], 0.0);
  EXPECT_TRUE(std::isinf((*vals)[1]));
}

TEST(GraphTablesTest, WithRowNumbers) {
  Table t(Schema({{"x", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{9})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{8})}));
  Table seq = WithRowNumbers(t, "seq");
  EXPECT_EQ(seq.num_columns(), 2);
  EXPECT_EQ(seq.ColumnByName("seq")->GetInt64(0), 0);
  EXPECT_EQ(seq.ColumnByName("seq")->GetInt64(1), 1);
}

TEST(PageRankVertexCentricTest, MatchesReference) {
  Graph g = Diamond();
  Catalog cat;
  auto ranks = RunPageRank(&cat, g, /*iters=*/10);
  ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
  auto expect = PageRankReference(g, 10);
  ASSERT_EQ(ranks->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9) << "vertex " << v;
  }
}

TEST(PageRankVertexCentricTest, MatchesReferenceOnRandomGraph) {
  Graph g = GenerateRmat(200, 1500, 17);
  Catalog cat;
  auto ranks = RunPageRank(&cat, g, 8);
  ASSERT_TRUE(ranks.ok());
  auto expect = PageRankReference(g, 8);
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9);
  }
}

TEST(PageRankVertexCentricTest, StatsRecordSupersteps) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  auto ranks = RunPageRank(&cat, g, 5, 0.85, {}, &stats);
  ASSERT_TRUE(ranks.ok());
  // iterations 0..5 compute, then one final no-op check.
  EXPECT_EQ(stats.num_supersteps(), 6);
  EXPECT_GT(stats.total_messages, 0);
  EXPECT_EQ(stats.supersteps[0].active_vertices, 4);
}

TEST(PageRankVertexCentricTest, PhaseBreakdownSumsToStepTime) {
  Graph g = GenerateRmat(128, 900, 18);
  Catalog cat;
  RunStats stats;
  ASSERT_TRUE(RunPageRank(&cat, g, 4, 0.85, {}, &stats).ok());
  for (const auto& s : stats.supersteps) {
    const double phases = s.input_seconds + s.worker_seconds +
                          s.split_seconds + s.apply_seconds;
    EXPECT_GT(phases, 0.0);
    EXPECT_LE(phases, s.seconds * 1.05 + 1e-3);
    EXPECT_GT(s.input_rows, 0);
  }
}

TEST(SsspVertexCentricTest, MatchesDijkstra) {
  Graph g = Diamond();
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  auto expect = DijkstraReference(g, 0);
  ASSERT_EQ(dist->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_DOUBLE_EQ((*dist)[v], expect[v]) << "vertex " << v;
  }
  EXPECT_DOUBLE_EQ((*dist)[3], 4.0);  // 0->1->2->3 = 1+2+1
}

TEST(SsspVertexCentricTest, UnreachableStaysInfinite) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1, 1.0);
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(std::isinf((*dist)[2]));
}

TEST(SsspVertexCentricTest, MessageDrivenHaltsEarly) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  auto dist = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(dist.ok());
  // Diamond has diameter 3; the run should finish in a handful of
  // supersteps, not the max cap.
  EXPECT_LE(stats.num_supersteps(), 6);
}

TEST(OptimizationTest, JoinInputMatchesUnionInput) {
  Graph g = GenerateRmat(128, 800, 5);
  VertexicaOptions union_opts;
  union_opts.use_union_input = true;
  VertexicaOptions join_opts;
  join_opts.use_union_input = false;

  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, union_opts);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, join_opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, JoinInputMatchesUnionInputForSssp) {
  Graph g = GenerateRmat(128, 800, 6);
  AssignRandomWeights(&g, 1.0, 5.0, 7);
  VertexicaOptions join_opts;
  join_opts.use_union_input = false;
  Catalog cat1;
  auto d1 = RunShortestPaths(&cat1, g, 0);
  Catalog cat2;
  auto d2 = RunShortestPaths(&cat2, g, 0, join_opts);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  for (size_t v = 0; v < d1->size(); ++v) {
    EXPECT_DOUBLE_EQ((*d1)[v], (*d2)[v]);
  }
}

TEST(OptimizationTest, CombinerOnOffSameResult) {
  Graph g = GenerateRmat(128, 800, 8);
  VertexicaOptions no_comb;
  no_comb.use_combiner = false;
  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, no_comb);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, CombinerShrinksMessageTable) {
  Graph g = GenerateRmat(128, 2000, 9);
  VertexicaOptions with_comb;
  with_comb.use_combiner = true;
  VertexicaOptions no_comb;
  no_comb.use_combiner = false;
  Catalog cat1;
  RunStats s1;
  ASSERT_TRUE(RunPageRank(&cat1, g, 4, 0.85, with_comb, &s1).ok());
  Catalog cat2;
  RunStats s2;
  ASSERT_TRUE(RunPageRank(&cat2, g, 4, 0.85, no_comb, &s2).ok());
  EXPECT_LT(s1.total_messages, s2.total_messages);
}

TEST(OptimizationTest, UpdateVsReplaceSameResult) {
  Graph g = GenerateRmat(128, 900, 10);
  VertexicaOptions always_update;
  always_update.update_threshold = 1.1;  // always in-place
  VertexicaOptions always_replace;
  always_replace.update_threshold = 0.0;  // always rebuild
  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, always_update);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, always_replace);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, ReplaceDecisionFollowsThreshold) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  VertexicaOptions opts;
  opts.update_threshold = 0.0;  // force replace
  ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, opts, &stats).ok());
  for (const auto& s : stats.supersteps) {
    if (s.vertex_updates > 0) {
      EXPECT_TRUE(s.used_replace);
    }
  }
  Catalog cat2;
  RunStats stats2;
  opts.update_threshold = 1.1;  // force in-place
  ASSERT_TRUE(RunPageRank(&cat2, g, 3, 0.85, opts, &stats2).ok());
  for (const auto& s : stats2.supersteps) {
    EXPECT_FALSE(s.used_replace);
  }
}

TEST(OptimizationTest, WorkerAndPartitionCountsDontChangeResults) {
  Graph g = GenerateRmat(128, 700, 11);
  std::vector<double> base;
  for (int workers : {1, 2, 4}) {
    for (int partitions : {0, 1, 8}) {
      VertexicaOptions opts;
      opts.num_workers = workers;
      opts.num_partitions = partitions;
      Catalog cat;
      auto r = RunPageRank(&cat, g, 4, 0.85, opts);
      ASSERT_TRUE(r.ok());
      if (base.empty()) {
        base = *r;
      } else {
        for (size_t v = 0; v < base.size(); ++v) {
          EXPECT_NEAR((*r)[v], base[v], 1e-9);
        }
      }
    }
  }
}

TEST(CoordinatorTest, AggregatorTracksRankMass) {
  Graph g = GenerateRmat(100, 600, 12);
  PageRankProgram program(4);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  Coordinator coord(&cat, &program);
  ASSERT_TRUE(coord.Run().ok());
  // Total rank mass stays near 1 (dangling vertices leak a little).
  auto it = coord.aggregates().find("pagerank_mass");
  ASSERT_NE(it, coord.aggregates().end());
  EXPECT_GT(it->second, 0.3);
  EXPECT_LE(it->second, 1.01);
}

TEST(CoordinatorTest, MaxSuperstepsBounds) {
  Graph g = Diamond();
  PageRankProgram program(1000);  // would run long
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  VertexicaOptions opts;
  opts.max_supersteps = 3;
  RunStats stats;
  Coordinator coord(&cat, &program, opts);
  ASSERT_TRUE(coord.Run(&stats).ok());
  EXPECT_EQ(stats.num_supersteps(), 3);
}

TEST(CoordinatorTest, EmptyGraphTerminatesImmediately) {
  Graph g;
  g.num_vertices = 3;  // no edges
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ((*dist)[0], 0.0);
  EXPECT_TRUE(std::isinf((*dist)[1]));
}

TEST(WorkerTest, RunnerSkipsInactiveVertex) {
  PageRankProgram program(2);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 1;  // not superstep 0
  shared.num_vertices = 10;
  shared.payload_arity = 1;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  UnionRowBuffer out(1);
  const double value = 0.1;
  runner.BeginVertex(5, /*halted=*/true, &value);  // halted, no messages
  EXPECT_FALSE(runner.FinishVertex(&out));
  EXPECT_TRUE(out.id.empty());
}

TEST(WorkerTest, RunnerReactivatesOnMessage) {
  ShortestPathProgram program(0);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 2;
  shared.num_vertices = 10;
  shared.payload_arity = 1;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  UnionRowBuffer out(1);
  const double inf = std::numeric_limits<double>::infinity();
  runner.BeginVertex(5, /*halted=*/true, &inf);
  runner.AddEdge(6, 1.0);
  const double msg = 3.0;
  runner.AddMessage(&msg);
  EXPECT_TRUE(runner.FinishVertex(&out));
  // Vertex row with changed state + one relaxation message to vertex 6.
  ASSERT_EQ(out.id.size(), 2u);
  EXPECT_EQ(out.kind[0], kVertexTuple);
  EXPECT_DOUBLE_EQ(out.payload[0][0], 3.0);
  EXPECT_EQ(out.kind[1], kMessageTuple);
  EXPECT_EQ(out.id[1], 6);
  EXPECT_DOUBLE_EQ(out.payload[0][1], 4.0);
}

// ---------------------------------------------------------------------------
// Order-aware superstep joins (exec/merge_join.h): with the join-input
// path, the sorted invariants (vertex by id, message by dst, edges by
// (src, dst)) turn both superstep joins into merge joins — zero hash
// builds — with results bit-identical to the hash path.
// ---------------------------------------------------------------------------

TEST(OptimizationTest, JoinInputRunsMergeJoinsOnly) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  ScopedExecShards unsharded(1);  // exact per-step counters assume 1 shard
  Graph g = GenerateRmat(128, 800, 11);
  VertexicaOptions opts;
  opts.use_union_input = false;
  opts.update_threshold = 2.0;  // always in-place: no rebuild-path joins
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(stats.supersteps.size(), 1u);
  for (const SuperstepStats& s : stats.supersteps) {
    // BuildJoinInput's vertex ⟕ message and ⟕ edge joins, merged.
    EXPECT_EQ(s.merge_joins, 2) << "superstep " << s.superstep;
    EXPECT_EQ(s.hash_joins, 0) << "superstep " << s.superstep;
    EXPECT_GT(s.join_rows, 0) << "superstep " << s.superstep;
  }
}

TEST(OptimizationTest, MergeJoinOnOffSameResult) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  Graph g = GenerateRmat(128, 800, 12);
  VertexicaOptions merge_opts;
  merge_opts.use_union_input = false;
  VertexicaOptions hash_opts;
  hash_opts.use_union_input = false;
  hash_opts.use_merge_join = false;
  Catalog cat1;
  RunStats s1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, merge_opts, &s1);
  Catalog cat2;
  RunStats s2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, hash_opts, &s2);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t v = 0; v < r1->size(); ++v) {
    // Bit-identical, not just close: the merge join reproduces the hash
    // join's probe-row-major match order exactly.
    EXPECT_EQ((*r1)[v], (*r2)[v]) << "vertex " << v;
  }
  ASSERT_EQ(s1.supersteps.size(), s2.supersteps.size());
  int64_t merged = 0;
  int64_t hashed = 0;
  for (const SuperstepStats& s : s1.supersteps) merged += s.merge_joins;
  for (const SuperstepStats& s : s2.supersteps) {
    hashed += s.hash_joins;
    EXPECT_EQ(s.merge_joins, 0);  // the ablation switch pins the hash path
  }
  EXPECT_GT(merged, 0);
  EXPECT_GT(hashed, 0);
}

TEST(OptimizationTest, MergeJoinSurvivesReplacePath) {
  // update_threshold = 0 forces the rebuild path every superstep; the
  // coordinator re-sorts the rebuilt vertex table, so merge joins keep
  // running and results still match the in-place path.
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  ScopedExecShards unsharded(1);  // exact per-step counters assume 1 shard
  Graph g = GenerateRmat(64, 400, 13);
  VertexicaOptions replace_opts;
  replace_opts.use_union_input = false;
  replace_opts.update_threshold = 0.0;
  Catalog cat1;
  RunStats s1;
  auto r1 = RunPageRank(&cat1, g, 4, 0.85, replace_opts, &s1);
  VertexicaOptions inplace_opts;
  inplace_opts.use_union_input = false;
  inplace_opts.update_threshold = 2.0;
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 4, 0.85, inplace_opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_EQ((*r1)[v], (*r2)[v]) << "vertex " << v;
  }
  for (const SuperstepStats& s : s1.supersteps) {
    EXPECT_EQ(s.merge_joins, 2) << "superstep " << s.superstep;
    // The rebuild's anti join (unsorted build side) may hash; the two
    // superstep input joins must not.
    EXPECT_LE(s.hash_joins, 1) << "superstep " << s.superstep;
  }
}

TEST(OptimizationTest, MergeJoinSameResultForSssp) {
  Graph g = GenerateRmat(128, 800, 14);
  AssignRandomWeights(&g, 1.0, 5.0, 15);
  VertexicaOptions merge_opts;
  merge_opts.use_union_input = false;
  VertexicaOptions hash_opts;
  hash_opts.use_union_input = false;
  hash_opts.use_merge_join = false;
  Catalog cat1;
  auto d1 = RunShortestPaths(&cat1, g, 0, merge_opts);
  Catalog cat2;
  auto d2 = RunShortestPaths(&cat2, g, 0, hash_opts);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  for (size_t v = 0; v < d1->size(); ++v) {
    EXPECT_EQ((*d1)[v], (*d2)[v]) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Persistent vertex-id sharding (storage/partition.h): with num_shards > 1
// the coordinator partitions the graph tables once per run, keeps shards
// resident, and only exchanges cross-shard messages between supersteps.
// Shards are contiguous blocks of the vertex-batching partitions, so
// results are bit-identical at any shard count — on both input paths, at
// any thread count.
// ---------------------------------------------------------------------------

TEST(ShardingTest, ShardedPageRankBitIdenticalAtAnyShardCount) {
  Graph g = GenerateRmat(200, 1500, 21);
  for (const bool union_input : {true, false}) {
    VertexicaOptions base;
    base.use_union_input = union_input;
    Catalog cat0;
    auto unsharded = RunPageRank(&cat0, g, 6, 0.85, base);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    for (const int shards : {1, 2, 8}) {
      VertexicaOptions opts = base;
      opts.num_shards = shards;
      Catalog cat;
      RunStats stats;
      auto sharded = RunPageRank(&cat, g, 6, 0.85, opts, &stats);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ASSERT_EQ(sharded->size(), unsharded->size());
      for (size_t v = 0; v < unsharded->size(); ++v) {
        EXPECT_EQ((*sharded)[v], (*unsharded)[v])
            << (union_input ? "union" : "join") << " input, shards="
            << shards << ", vertex " << v;
      }
      for (const SuperstepStats& s : stats.supersteps) {
        EXPECT_EQ(s.shards, shards);
      }
    }
  }
}

TEST(ShardingTest, ShardedSsspBitIdenticalAcrossThreadCounts) {
  Graph g = GenerateRmat(150, 900, 22);
  AssignRandomWeights(&g, 1.0, 5.0, 23);
  Catalog cat0;
  auto unsharded = RunShortestPaths(&cat0, g, 0, {});
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  for (const int threads : {1, 4}) {
    ScopedExecThreads scoped(threads);
    VertexicaOptions opts;
    opts.num_shards = 4;
    Catalog cat;
    auto sharded = RunShortestPaths(&cat, g, 0, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->size(), unsharded->size());
    for (size_t v = 0; v < unsharded->size(); ++v) {
      EXPECT_EQ((*sharded)[v], (*unsharded)[v])
          << "threads=" << threads << ", vertex " << v;
    }
  }
}

TEST(ShardingTest, PerShardCountersReported) {
  Graph g = GenerateRmat(200, 1200, 24);
  VertexicaOptions opts;
  opts.num_shards = 4;
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(stats.supersteps.size(), 1u);
  bool any_cross_shard = false;
  for (const SuperstepStats& s : stats.supersteps) {
    EXPECT_EQ(s.shards, 4);
    ASSERT_EQ(s.shard_input_rows.size(), 4u);
    ASSERT_EQ(s.shard_messages.size(), 4u);
    int64_t input_sum = 0;
    for (int64_t rows : s.shard_input_rows) input_sum += rows;
    EXPECT_EQ(input_sum, s.input_rows);
    int64_t message_sum = 0;
    for (int64_t rows : s.shard_messages) message_sum += rows;
    EXPECT_EQ(message_sum, s.messages_sent);
    if (s.cross_shard_messages > 0) any_cross_shard = true;
  }
  // An RMAT graph connects vertices across hash blocks, so some messages
  // must cross shards.
  EXPECT_TRUE(any_cross_shard);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"shard_input_rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"cross_shard_messages\":"), std::string::npos);
}

TEST(ShardingTest, AmbientShardsKnobResolvesLikeThreads) {
  Graph g = Diamond();
  {
    ScopedExecShards scoped(2);
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, {}, &stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps[0].shards, 2);
  }
  {
    // An explicit option wins over the ambient knob, like num_workers
    // vs. the threads knob.
    ScopedExecShards scoped(2);
    VertexicaOptions opts;
    opts.num_shards = 3;
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, opts, &stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps[0].shards, 3);
  }
  {
    // Unsharded runs report shards = 1 with empty per-shard vectors.
    ScopedExecShards unsharded(1);  // pin against a VERTEXICA_SHARDS env
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, {}, &stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps[0].shards, 1);
    EXPECT_TRUE(stats.supersteps[0].shard_input_rows.empty());
  }
}

TEST(ShardingTest, ShardedMergeJoinStillMergesOnly) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  Graph g = GenerateRmat(128, 800, 25);
  VertexicaOptions opts;
  opts.use_union_input = false;
  opts.update_threshold = 2.0;  // in-place: no rebuild-path joins
  opts.num_shards = 4;
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const SuperstepStats& s : stats.supersteps) {
    // Two input-build joins per shard, all merged: the per-shard tables
    // keep the sorted invariants (vertex by id, message by dst, edges by
    // (src, dst)) the planner needs.
    EXPECT_EQ(s.merge_joins, 2 * 4) << "superstep " << s.superstep;
    EXPECT_EQ(s.hash_joins, 0) << "superstep " << s.superstep;
  }
}

// ---------------------------------------------------------------------------
// Active-vertex frontier supersteps (exec/frontier.h): the worker input is
// gathered from a per-(shard-)table bitvector of non-halted vertices and
// message receivers plus CSR edge slices instead of full scans. The
// contract under test: bit-identical to the dense path at any mode × shard
// count × thread count, on both input paths.
// ---------------------------------------------------------------------------

Graph ChainGraph(int64_t n) {
  Graph g;
  g.num_vertices = n;
  for (int64_t v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1, 1.0);
  return g;
}

TEST(FrontierTest, PageRankBitIdenticalAcrossModes) {
  Graph g = GenerateRmat(200, 1500, 31);
  for (const bool union_input : {true, false}) {
    VertexicaOptions opts;
    opts.use_union_input = union_input;
    // In-place updates preserve the vertex table's declared id order — the
    // frontier's structural precondition — on both input paths. (PageRank
    // updates every vertex, so the default threshold would take the
    // replace path, whose union-path rebuild legitimately goes dense.)
    opts.update_threshold = 2.0;
    Catalog cat0;
    std::vector<double> dense;
    {
      ScopedFrontierMode off(FrontierMode::kOff);
      auto r = RunPageRank(&cat0, g, 6, 0.85, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dense = *r;
    }
    for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
      ScopedFrontierMode scoped(mode);
      Catalog cat;
      RunStats stats;
      auto r = RunPageRank(&cat, g, 6, 0.85, opts, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->size(), dense.size());
      for (size_t v = 0; v < dense.size(); ++v) {
        EXPECT_EQ((*r)[v], dense[v])
            << (union_input ? "union" : "join") << " input, mode="
            << FrontierModeName(mode) << ", vertex " << v;
      }
      EXPECT_EQ(stats.frontier_supersteps + stats.dense_supersteps,
                static_cast<int64_t>(stats.supersteps.size()));
      if (mode == FrontierMode::kOn) {
        // Forced mode: every superstep past the first takes the sparse
        // path (superstep 0 is dense by definition).
        for (const SuperstepStats& s : stats.supersteps) {
          EXPECT_EQ(s.used_frontier, s.superstep > 0)
              << (union_input ? "union" : "join") << " input, superstep "
              << s.superstep;
        }
        EXPECT_GT(stats.frontier_supersteps, 0);
      }
    }
  }
}

TEST(FrontierTest, SsspBitIdenticalAcrossModesShardsAndThreads) {
  Graph g = GenerateRmat(150, 900, 32);
  AssignRandomWeights(&g, 1.0, 5.0, 33);
  Catalog cat0;
  std::vector<double> dense;
  {
    ScopedFrontierMode off(FrontierMode::kOff);
    auto r = RunShortestPaths(&cat0, g, 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dense = *r;
  }
  for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
    for (const int shards : {1, 2, 8}) {
      ScopedFrontierMode scoped(mode);
      VertexicaOptions opts;
      opts.num_shards = shards;
      Catalog cat;
      auto r = RunShortestPaths(&cat, g, 0, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->size(), dense.size());
      for (size_t v = 0; v < dense.size(); ++v) {
        EXPECT_EQ((*r)[v], dense[v])
            << "mode=" << FrontierModeName(mode) << ", shards=" << shards
            << ", vertex " << v;
      }
    }
  }
  for (const int threads : {1, 4}) {
    ScopedExecThreads scoped_threads(threads);
    ScopedFrontierMode on(FrontierMode::kOn);
    VertexicaOptions opts;
    opts.num_shards = 2;
    Catalog cat;
    auto r = RunShortestPaths(&cat, g, 0, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (size_t v = 0; v < dense.size(); ++v) {
      EXPECT_EQ((*r)[v], dense[v])
          << "threads=" << threads << ", vertex " << v;
    }
  }
}

TEST(FrontierTest, AutoModeGoesSparseOnLongTail) {
  // SSSP on a chain: after superstep 0 every vertex is halted and exactly
  // one message is in flight, so the active fraction is 1/n — far below
  // the auto threshold. `auto` must take the sparse path on its own and
  // report it.
  Graph g = ChainGraph(100);
  ScopedFrontierMode automatic(FrontierMode::kAuto);
  ScopedExecShards unsharded(1);  // pin against a VERTEXICA_SHARDS env
  Catalog cat;
  RunStats stats;
  auto r = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t v = 0; v < r->size(); ++v) {
    EXPECT_DOUBLE_EQ((*r)[v], static_cast<double>(v));
  }
  ASSERT_GT(stats.supersteps.size(), 2u);
  EXPECT_FALSE(stats.supersteps[0].used_frontier);  // superstep 0 is dense
  EXPECT_GT(stats.frontier_supersteps, 0);
  for (const SuperstepStats& s : stats.supersteps) {
    if (!s.used_frontier) continue;
    // The chain frontier is one receiver (plus no stragglers).
    EXPECT_GE(s.frontier_vertices, 1) << "superstep " << s.superstep;
    EXPECT_LE(s.frontier_vertices, 2) << "superstep " << s.superstep;
  }
  EXPECT_EQ(stats.frontier_supersteps + stats.dense_supersteps,
            static_cast<int64_t>(stats.supersteps.size()));
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"frontier_supersteps\":"), std::string::npos);
  EXPECT_NE(json.find("\"used_frontier\":true"), std::string::npos);
  EXPECT_NE(json.find("\"frontier_vertices\":"), std::string::npos);
}

TEST(FrontierTest, OffModeNeverTakesTheSparsePath) {
  Graph g = ChainGraph(50);
  ScopedFrontierMode off(FrontierMode::kOff);
  Catalog cat;
  RunStats stats;
  auto r = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.frontier_supersteps, 0);
  EXPECT_EQ(stats.dense_supersteps,
            static_cast<int64_t>(stats.supersteps.size()));
  for (const SuperstepStats& s : stats.supersteps) {
    EXPECT_FALSE(s.used_frontier);
    EXPECT_EQ(s.frontier_vertices, 0);
  }
}

TEST(WorkerTest, UnionBufferToTable) {
  UnionRowBuffer buf(2);
  const double p[2] = {1.5, 2.5};
  buf.AppendRow(7, kMessageTuple, 3, false, p, 2);
  Table t = buf.ToTable();
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.ColumnByName("id")->GetInt64(0), 7);
  EXPECT_DOUBLE_EQ(t.ColumnByName("p1")->GetDouble(0), 2.5);
  // Buffer is reusable after ToTable.
  buf.AppendRow(1, kVertexTuple, 0, true, p, 1);
  Table t2 = buf.ToTable();
  EXPECT_EQ(t2.num_rows(), 1);
  EXPECT_DOUBLE_EQ(t2.ColumnByName("p1")->GetDouble(0), 0.0);  // padded
}

TEST(InvariantAuditTest, CatalogTablesPassDeepAuditAfterRuns) {
  // End-to-end audit coverage: the tables a finished run publishes —
  // sort-order declarations, segment encodings, zone maps included — must
  // withstand the same CheckInvariants the VX_DCHECK tier applies at every
  // phase boundary, on both the unsharded and sharded dataflows.
  Graph g = GenerateRmat(120, 600, 17);
  for (int shards : {0, 3}) {
    ScopedExecShards scoped(shards);
    Catalog cat;
    ASSERT_TRUE(RunPageRank(&cat, g, 6).ok());
    for (const char* const name : {"vertex", "edge", "message"}) {
      auto table = cat.GetTable(name);
      ASSERT_TRUE(table.ok()) << name;
      const Status st = (*table)->CheckInvariants();
      EXPECT_TRUE(st.ok()) << name << " (shards=" << shards
                           << "): " << st.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Worker-input layout: the partition-wise union builder (union_input.h)
// must hand the Worker exactly what HashPartition + a stable SortTable of
// the three-section union table produced — byte for byte, in every table
// state the coordinator can meet. The reference union is rebuilt here from
// the §2.3 projections, independently of the builder.
// ---------------------------------------------------------------------------

/// A program that only fixes the arities the union layout depends on.
class ArityProgram : public VertexProgram {
 public:
  ArityProgram(int va, int ma) : va_(va), ma_(ma) {}
  int value_arity() const override { return va_; }
  int message_arity() const override { return ma_; }
  void InitValue(int64_t, int64_t, double* value) const override {
    for (int i = 0; i < va_; ++i) value[i] = 0.0;
  }
  void Compute(VertexContext*) override {}

 private:
  int va_;
  int ma_;
};

/// The reference union: v, e, m sections projected to the common schema and
/// concatenated in that order (ids may repeat across sections).
Table ReferenceUnion(const Table& vertex, const Table& edge,
                     const Table& message, const VertexProgram& program) {
  const int va = program.value_arity();
  const int ma = program.message_arity();
  const int arity = PayloadArity(program);
  std::vector<ProjectionSpec> vproj = {
      {"id", Col("id")},
      {"kind", Lit(static_cast<int64_t>(kVertexTuple))},
      {"other", Lit(int64_t{-1})},
      {"halted", Col("halted")}};
  std::vector<ProjectionSpec> eproj = {
      {"id", Col("src")},
      {"kind", Lit(static_cast<int64_t>(kEdgeTuple))},
      {"other", Col("dst")},
      {"halted", Lit(false)}};
  std::vector<ProjectionSpec> mproj = {
      {"id", Col("dst")},
      {"kind", Lit(static_cast<int64_t>(kMessageTuple))},
      {"other", Col("src")},
      {"halted", Lit(false)}};
  for (int i = 0; i < arity; ++i) {
    const std::string p = "p" + std::to_string(i);
    vproj.push_back({p, i < va ? Col("v" + std::to_string(i)) : Lit(0.0)});
    eproj.push_back({p, i == 0 ? Col("weight") : Lit(0.0)});
    mproj.push_back({p, i < ma ? Col("m" + std::to_string(i)) : Lit(0.0)});
  }
  auto v = ParallelProject(std::make_shared<const Table>(vertex), vproj);
  auto e = ParallelProject(std::make_shared<const Table>(edge), eproj);
  auto m = ParallelProject(std::make_shared<const Table>(message), mproj);
  EXPECT_TRUE(v.ok() && e.ok() && m.ok());
  Table out = *std::move(v);
  EXPECT_TRUE(out.Append(*e).ok());
  EXPECT_TRUE(out.Append(*m).ok());
  return out;
}

/// Partition p of the reference: HashPartition + stable sort on id.
std::vector<Table> ReferencePartitions(const Table& vertex, const Table& edge,
                                       const Table& message,
                                       const VertexProgram& program,
                                       int partitions) {
  std::vector<Table> parts = HashPartition(
      ReferenceUnion(vertex, edge, message, program), 0, partitions);
  for (Table& t : parts) t = SortTable(t, {{0, true}});
  return parts;
}

/// Byte equality: same schema and, per cell, same validity and same bits
/// (doubles compared by bit pattern, so NaN payloads and -0.0 count).
void ExpectSameBytes(const Table& got, const Table& want,
                     const std::string& where) {
  ASSERT_TRUE(got.schema().Equals(want.schema())) << where;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << where;
  for (int c = 0; c < got.num_columns(); ++c) {
    const Column& a = got.column(c);
    const Column& b = want.column(c);
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << where << " col " << c << " row "
                                          << r;
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case DataType::kDouble: {
          const double x = a.GetDouble(r);
          const double y = b.GetDouble(r);
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
              << where << " col " << c << " row " << r;
          break;
        }
        case DataType::kBool:
          ASSERT_EQ(a.GetBool(r), b.GetBool(r))
              << where << " col " << c << " row " << r;
          break;
        default:
          ASSERT_EQ(a.GetInt64(r), b.GetInt64(r))
              << where << " col " << c << " row " << r;
      }
    }
  }
}

/// Stored-table triple for the layout cases: ids include negatives and the
/// INT64 extremes; edges include self-loops, multi-edges and sinks;
/// messages include receivers absent from the vertex table.
struct LayoutTables {
  Table vertex;
  Table edge;
  Table message;
};

LayoutTables MakeLayoutTables(int va, int ma) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<int64_t> ids = {kMin, kMin + 1, -7, -1, 0, 1, 2, 3,
                                    5, 8, 13, 1000003, kMax - 1, kMax};
  LayoutTables t{Table(MakeVertexSchema(va)), Table(MakeEdgeSchema()),
                 Table(MakeMessageSchema(ma))};
  for (size_t i = 0; i < ids.size(); ++i) {
    std::vector<Value> row = {Value(ids[i]), Value(i % 3 == 0)};
    for (int c = 0; c < va; ++c) {
      row.push_back(Value(static_cast<double>(i) * 0.5 + c));
    }
    EXPECT_TRUE(t.vertex.AppendRow(row).ok());
  }
  const auto add_edge = [&t](int64_t s, int64_t d, double w) {
    EXPECT_TRUE(t.edge.AppendRow({Value(s), Value(d), Value(w)}).ok());
  };
  // Sorted (src, dst) like the stored edge table; 3, 8 and kMax - 1 are
  // sinks, -7 has a self-loop, 0 -> 1 is a multi-edge.
  add_edge(kMin, kMax, 1.0);
  add_edge(kMin, 0, -0.0);
  add_edge(kMin + 1, kMin + 1, 2.0);
  add_edge(-7, -7, 3.0);
  add_edge(-7, 2, std::numeric_limits<double>::quiet_NaN());
  add_edge(-1, 5, 4.0);
  add_edge(0, 1, 5.0);
  add_edge(0, 1, 6.0);
  add_edge(0, 13, 7.0);
  add_edge(1, 2, 8.0);
  add_edge(2, 1000003, 9.0);
  add_edge(5, 0, 10.0);
  add_edge(13, -1, 11.0);
  add_edge(1000003, kMin, 12.0);
  add_edge(kMax, kMax, 13.0);
  // Messages in arrival order (not sorted by dst); 4 and 99 are orphan
  // receivers, several receivers get more than one message.
  const std::vector<std::pair<int64_t, int64_t>> msgs = {
      {0, 1},  {5, kMax}, {-7, 4},   {1, 1},    {kMin, 0},  {2, -7},
      {3, 99}, {0, 1},    {13, kMin}, {-1, kMax}, {8, 1000003}};
  for (size_t i = 0; i < msgs.size(); ++i) {
    std::vector<Value> row = {Value(msgs[i].first), Value(msgs[i].second)};
    for (int c = 0; c < ma; ++c) {
      row.push_back(Value(static_cast<double>(i) + 0.25 * c));
    }
    EXPECT_TRUE(t.message.AppendRow(row).ok());
  }
  return t;
}

/// `t` sorted (stable) and declared ascending on `column`.
Table Sorted(const Table& t, const std::string& column) {
  return SortTable(t, {{t.schema().FieldIndex(column), true}});
}

/// The partitions the coordinator hands the Worker for one table triple:
/// sections through BuildUnionInput (dense) or BuildUnionInputFrontier.
std::vector<Table> BuilderPartitions(const Table& vertex, const Table& edge,
                                     const Table& message,
                                     const VertexProgram& program,
                                     int partitions,
                                     const Bitvector* frontier) {
  auto v = std::make_shared<const Table>(vertex);
  auto e = std::make_shared<const Table>(edge);
  auto m = std::make_shared<const Table>(message);
  Result<UnionInput> input = Status::Internal("unset");
  if (frontier != nullptr) {
    auto csr = CsrIndex::Build(*edge.ColumnByName("src"));
    EXPECT_NE(csr, nullptr);
    input = BuildUnionInputFrontier(v, e, m, *frontier, *csr, program,
                                    partitions);
  } else {
    auto section =
        BuildUnionSection(UnionSectionKind::kEdge, e, program, partitions);
    EXPECT_TRUE(section.ok());
    input = BuildUnionInput(
        v, std::make_shared<const UnionSection>(*std::move(section)), m,
        program, partitions);
  }
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  std::vector<Table> out;
  for (int p = 0; p < partitions; ++p) out.push_back(input->Partition(p));
  return out;
}

/// `t` with its rows in reverse order (no declared order).
Table Reversed(const Table& t) {
  std::vector<int64_t> rows;
  for (int64_t r = t.num_rows() - 1; r >= 0; --r) rows.push_back(r);
  return t.Take(rows);
}

TEST(UnionInputTest, PartitionsMatchHashPartitionAndStableSort) {
  // The coordinator's batching count, and a coarse one that puts many ids
  // (and out-of-order rows) into every partition.
  for (const int kPartitions : {kDefaultTransformPartitions, 4}) {
  for (const auto& [va, ma] : {std::pair{1, 1}, std::pair{3, 1},
                               std::pair{1, 3}}) {
    ArityProgram program(va, ma);
    const LayoutTables raw = MakeLayoutTables(va, ma);
    // Table states: undeclared (a restored checkpoint: rows in stored
    // order, no declaration; messages in arrival order), unsorted (rows
    // in reverse stored order, no declaration) and declared (vertex by
    // id, edge by src, message by dst).
    struct State {
      const char* name;
      Table vertex, edge, message;
    };
    std::vector<State> states;
    states.push_back({"undeclared", raw.vertex, raw.edge, raw.message});
    states.push_back({"unsorted", Reversed(raw.vertex), Reversed(raw.edge),
                      Reversed(raw.message)});
    states.push_back({"declared", Sorted(raw.vertex, "id"),
                      Sorted(raw.edge, "src"), Sorted(raw.message, "dst")});
    for (const State& st : states) {
      for (const int shards : {1, 4}) {
        for (const bool frontier_on : {false, true}) {
          const std::string where =
              std::string(st.name) + " partitions=" +
              std::to_string(kPartitions) + " va=" + std::to_string(va) +
              " ma=" + std::to_string(ma) + " shards=" +
              std::to_string(shards) +
              (frontier_on ? " frontier" : " dense");
          // The frontier path's precondition is an id-sorted vertex table;
          // every other vertex row is active.
          // The CSR index needs src-sorted edges; undeclared is fine.
          const Table vertex =
              frontier_on ? Sorted(st.vertex, "id") : st.vertex;
          Table edge = st.edge;
          if (frontier_on) {
            edge = Sorted(st.edge, "src");
            if (std::string(st.name) != "declared") edge.ClearSortOrder();
          }
          Bitvector bits(vertex.num_rows());
          std::vector<int64_t> active_rows;
          for (int64_t r = 0; r < vertex.num_rows(); r += 2) {
            bits.Set(r);
            active_rows.push_back(r);
          }
          // Reference input: the frontier restricts the vertex rows and
          // their out-edges (in edge-table order); messages stay whole.
          Table ref_vertex = vertex;
          Table ref_edge = edge;
          if (frontier_on) {
            ref_vertex = vertex.Take(active_rows);
            std::vector<int64_t> edge_rows;
            for (int64_t r : active_rows) {
              const int64_t id = vertex.column(0).GetInt64(r);
              for (int64_t e = 0; e < edge.num_rows(); ++e) {
                if (edge.column(0).GetInt64(e) == id) edge_rows.push_back(e);
              }
            }
            ref_edge = edge.Take(edge_rows);
          }
          const std::vector<Table> want = ReferencePartitions(
              ref_vertex, ref_edge, st.message, program, kPartitions);

          ShardingSpec spec;
          spec.num_shards = shards;
          spec.base_partitions = kPartitions;
          auto vs = ShardScatter(vertex, 0, spec);
          auto es = ShardScatter(edge, 0, spec);
          auto ms = ShardScatter(st.message, 1, spec);
          ASSERT_TRUE(vs.ok() && es.ok() && ms.ok());
          for (int s = 0; s < shards; ++s) {
            const auto ss = static_cast<size_t>(s);
            std::optional<Bitvector> shard_bits;
            if (frontier_on) {
              // Re-derive the shard's active rows: the shard holds the
              // vertex rows of its ids in table order.
              const Table& shard_vertex = (*vs)[ss];
              shard_bits.emplace(shard_vertex.num_rows());
              for (int64_t r = 0; r < shard_vertex.num_rows(); ++r) {
                const int64_t id = shard_vertex.column(0).GetInt64(r);
                for (int64_t a : active_rows) {
                  if (vertex.column(0).GetInt64(a) == id) shard_bits->Set(r);
                }
              }
            }
            const std::vector<Table> got = BuilderPartitions(
                (*vs)[ss], (*es)[ss], (*ms)[ss], program, kPartitions,
                shard_bits ? &*shard_bits : nullptr);
            for (int p = 0; p < kPartitions; ++p) {
              const auto sp = static_cast<size_t>(p);
              const std::string at = where + " shard " + std::to_string(s) +
                                     " partition " + std::to_string(p);
              if (spec.ShardOfPartition(p) == s) {
                ExpectSameBytes(got[sp], want[sp], at);
              } else {
                EXPECT_EQ(got[sp].num_rows(), 0) << at;
              }
            }
          }
        }
      }
    }
  }
  }
}

TEST(UnionInputTest, MostPartitionsOfATinyGraphAreEmpty) {
  // Two vertices over 64 batching partitions: the empty partitions must
  // merge to empty tables (skipped by RunTransform), the rest must match.
  ArityProgram program(1, 1);
  Table vertex(MakeVertexSchema(1));
  ASSERT_TRUE(vertex.AppendRow({Value(int64_t{7}), Value(false), Value(1.0)})
                  .ok());
  ASSERT_TRUE(vertex.AppendRow({Value(int64_t{9}), Value(true), Value(2.0)})
                  .ok());
  Table edge(MakeEdgeSchema());
  ASSERT_TRUE(
      edge.AppendRow({Value(int64_t{7}), Value(int64_t{9}), Value(1.0)}).ok());
  Table message(MakeMessageSchema(1));
  const int kPartitions = kDefaultTransformPartitions;
  const std::vector<Table> want =
      ReferencePartitions(vertex, edge, message, program, kPartitions);
  const std::vector<Table> got = BuilderPartitions(
      vertex, edge, message, program, kPartitions, nullptr);
  int non_empty = 0;
  for (int p = 0; p < kPartitions; ++p) {
    const auto sp = static_cast<size_t>(p);
    ExpectSameBytes(got[sp], want[sp], "partition " + std::to_string(p));
    non_empty += got[sp].num_rows() > 0 ? 1 : 0;
  }
  EXPECT_GE(non_empty, 1);
  EXPECT_LE(non_empty, 2);
}

}  // namespace
}  // namespace vertexica
