/// \file coordinator.h
/// \brief The coordinator (§2.2): the stored procedure that drives
/// supersteps — "it runs as long as there is any message for the next
/// superstep".
///
/// Each superstep the coordinator
///  1. assembles the worker input from the vertex/edge/message tables —
///     either as the §2.3 table union (sections scattered on vertex id and
///     merged per partition, vertexica/union_input.h) or as the traditional
///     3-way join (hash-partitioned and sorted per partition),
///  2. runs parallel worker UDFs over the id-sorted partitions (vertex
///     batching),
///  3. splits the worker output into vertex updates, new messages, and
///     global-aggregator partials,
///  4. optionally combines messages per receiver (combiner),
///  5. applies vertex updates in place or by table replacement depending on
///     the update fraction (update vs. replace), and swaps in the new
///     message table.

#ifndef VERTEXICA_VERTEXICA_COORDINATOR_H_
#define VERTEXICA_VERTEXICA_COORDINATOR_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/frontier.h"
#include "graphgen/graph.h"
#include "storage/bitvector.h"
#include "storage/csr_index.h"
#include "vertexica/graph_tables.h"
#include "vertexica/options.h"
#include "vertexica/union_input.h"
#include "vertexica/vertex_program.h"

namespace vertexica {

struct WorkerSharedState;

/// \brief Measurements for one superstep (shown in the demo GUI's time
/// monitor and consumed by the benches).
struct SuperstepStats {
  int superstep = 0;
  int64_t input_rows = 0;        ///< worker input size (union or join rows)
  int64_t active_vertices = 0;   ///< vertices whose Compute ran
  int64_t vertex_updates = 0;    ///< vertices whose state changed
  int64_t messages_sent = 0;     ///< messages for the next superstep
  double seconds = 0.0;
  bool used_replace = false;     ///< update-vs-replace decision taken

  /// \name Phase breakdown (sums to ≈ seconds)
  /// @{
  double input_seconds = 0.0;    ///< union sections / join assembly
  double worker_seconds = 0.0;   ///< per-partition input + Compute
  double split_seconds = 0.0;    ///< output split & combiner
  double apply_seconds = 0.0;    ///< vertex update / table swaps
  /// @}

  /// \name Stored-table footprint (storage/encoding.h)
  /// Sizes of the vertex + message tables as stored at the end of the
  /// superstep: `encoded_bytes` is the actual (possibly compressed)
  /// representation, `decoded_bytes` the plain equivalent; equal when the
  /// encoding knob is off.
  /// @{
  int64_t encoded_bytes = 0;
  int64_t decoded_bytes = 0;
  /// @}

  /// \name Sharded-dataflow accounting (storage/partition.h)
  /// Filled when the coordinator runs the persistent-sharding path
  /// (shards > 1): per-shard worker-input and stored-message row counts
  /// (indexed by shard id), and how many produced messages had to cross a
  /// shard boundary in the between-superstep exchange. Unsharded runs
  /// report shards = 1 with empty vectors. On sharded runs the phase
  /// breakdown attributes the fused per-shard input build + worker compute
  /// to `worker_seconds` (input_seconds stays 0) and the message exchange
  /// to `split_seconds`.
  /// @{
  int shards = 1;
  std::vector<int64_t> shard_input_rows;
  std::vector<int64_t> shard_messages;
  int64_t cross_shard_messages = 0;
  /// @}

  /// \name Frontier-path accounting (exec/frontier.h)
  /// Whether this superstep's worker input was built from the sparse
  /// active-vertex frontier instead of the full tables, and how many
  /// vertices the frontier contained (the active-set popcount; 0 on dense
  /// supersteps). On sharded runs the decision is per shard:
  /// `used_frontier` is true when any shard took the frontier path and
  /// `frontier_vertices` sums the frontier shards' active counts.
  /// @{
  bool used_frontier = false;
  int64_t frontier_vertices = 0;
  /// @}

  /// \name Join-path accounting (exec/merge_join.h)
  /// Joins executed by this superstep's relational plans — the 3-way
  /// input build and the replace-path vertex rebuild — split by physical
  /// path: order-aware merge joins vs hash joins. `join_rows` is rows
  /// emitted, `join_seconds` wall-clock inside the join kernels (part of
  /// input_seconds/apply_seconds, not in addition to them). With
  /// use_merge_join and the join input path, both superstep joins run as
  /// merge joins: zero hash builds per superstep.
  /// @{
  int64_t merge_joins = 0;
  int64_t hash_joins = 0;
  int64_t join_rows = 0;
  double join_seconds = 0.0;
  /// @}
};

/// \brief Whole-run measurements.
struct RunStats {
  std::vector<SuperstepStats> supersteps;
  double total_seconds = 0.0;
  int64_t total_messages = 0;

  /// \name Frontier-vs-dense superstep counts (exec/frontier.h)
  /// How many supersteps took each input-build path; they sum to
  /// `supersteps.size()` when per-step stats are collected.
  /// @{
  int64_t frontier_supersteps = 0;
  int64_t dense_supersteps = 0;
  /// @}

  /// Superstep count for engines that run supersteps without a per-step
  /// phase breakdown (e.g. the BSP comparator behind the Engine facade);
  /// -1 = derive the count from `supersteps`.
  int superstep_count = -1;

  int num_supersteps() const {
    return superstep_count >= 0 ? superstep_count
                                : static_cast<int>(supersteps.size());
  }

  /// \brief Serializes totals and the per-superstep phase breakdown as a
  /// single JSON object, so benches and `RunResult` report uniformly:
  /// {"total_seconds":…,"total_messages":…,"num_supersteps":…,
  ///  "supersteps":[{"superstep":…,"input_rows":…,…},…]}.
  std::string ToJson() const;
};

/// \brief Streams `stats.ToJson()`.
std::ostream& operator<<(std::ostream& os, const RunStats& stats);

/// \brief Drives a vertex program over the graph tables in a catalog.
class Coordinator {
 public:
  Coordinator(Catalog* catalog, VertexProgram* program,
              VertexicaOptions options = {}, GraphTableNames names = {});
  ~Coordinator();

  /// \brief Runs supersteps until no messages remain and all vertices have
  /// voted to halt (or max_supersteps is reached).
  ///
  /// With an effective shard count > 1 (VertexicaOptions::num_shards, else
  /// the ambient ExecShards() knob) the run takes the persistent-sharding
  /// path: vertex and edge tables are partitioned on vertex id once, kept
  /// resident across supersteps, and each superstep runs the per-shard
  /// dataflow shard-wise in parallel, exchanging only cross-shard messages
  /// in between. Results are bit-identical to the unsharded path at any
  /// shard count.
  Status Run(RunStats* stats = nullptr);

  /// \brief Global aggregator values from the final superstep.
  const std::map<std::string, double>& aggregates() const {
    return prev_aggregates_;
  }

 private:
  /// Shared snapshots so the morsel-parallel input build (exec/parallel.h)
  /// can range-scan the catalog tables without copying them.
  using TablePtr = std::shared_ptr<const Table>;

  /// Projects/numbers/re-encodes the (esrc, edst, eweight, edge_seq) join
  /// side of an edge table — the per-run cacheable half of the join input.
  Result<TablePtr> BuildEdgeJoinSide(const TablePtr& edge) const;
  /// The per-superstep half: vertex ⟕ message ⟕ prebuilt edge side.
  Result<Table> BuildJoinInputWithEdgeSide(const TablePtr& vertex,
                                           const TablePtr& edge_side,
                                           const TablePtr& message) const;
  /// Sparse counterpart (exec/frontier.h): only the probe (vertex) side is
  /// restricted to the `frontier` rows; see BuildUnionInputFrontier for the
  /// union path.
  Result<Table> BuildJoinInputFrontier(const TablePtr& vertex,
                                       const TablePtr& edge_side,
                                       const TablePtr& message,
                                       const Bitvector& frontier) const;
  /// Applies the program's message combiner (when configured and enabled)
  /// over a message table; otherwise returns it unchanged.
  Result<Table> CombineMessages(Table messages) const;
  /// In-place path of §2.3 "Update Vs Replace": copies the vertex columns
  /// and scatters the updates.
  Result<Table> UpdateVerticesInPlace(const Table& vertex,
                                      const Table& updates) const;
  /// Replace path: anti-join out updated ids, union the new rows.
  Result<Table> RebuildVertices(const Table& vertex,
                                const Table& updates) const;

  /// Re-declares `keys` (ascending) on a stored table when the rows are
  /// verifiably in that order but the declaration is missing — checkpoint
  /// restore (catalog_io) persists no sort-order metadata, and without
  /// this a resumed run would silently pin every superstep join to the
  /// hash path.
  Status RestoreSortedInvariant(const std::string& table_name,
                                const std::vector<std::string>& keys) const;

  /// The persistent-sharding superstep loop (see Run). `num_shards` > 1,
  /// already clamped to the vertex-batching partition count.
  Status RunSharded(RunStats* stats, int num_shards, int base_partitions,
                    int first_superstep);

  /// Writes the resident shards back to the catalog (vertex re-sorted by
  /// id, messages re-sorted by receiver) — run end and checkpoints.
  Status FlushShardsToCatalog() const;

  Catalog* catalog_;
  VertexProgram* program_;
  VertexicaOptions options_;
  GraphTableNames names_;
  std::map<std::string, double> prev_aggregates_;

  /// Structures derived from one edge-table snapshot, cached together and
  /// invalidated together by snapshot identity — the coordinator re-fetches
  /// the stored edge table every superstep, so replacing it (the
  /// dynamic-graph path) changes `source` and rebuilds every member on
  /// first use. All members are built lazily inside the run, on the first
  /// superstep that needs them. `join_side` is the (esrc, edst, eweight,
  /// edge_seq) projection with the esrc column kept RLE-encoded so the
  /// merge join matches whole runs; `union_section` is the edge section of
  /// the union input, projected and scattered over the batching partitions
  /// once per run; `csr` is the per-source-vertex row-slice index the
  /// frontier gathers use (csr_failed remembers an unbuildable layout so an
  /// unsorted edge table is probed once per snapshot, not per superstep).
  /// The message/vertex sides change every superstep and are not cacheable.
  /// The unsharded loop keeps one; the sharded loop one per edge shard.
  struct EdgeDerived {
    TablePtr source;
    TablePtr join_side;                                ///< join path
    std::shared_ptr<const UnionSection> union_section; ///< union path
    std::shared_ptr<const CsrIndex> csr;               ///< union frontier
    bool csr_failed = false;
  };
  /// Drops `cache` when `edge` is a different snapshot than the one its
  /// structures were derived from.
  static void SyncEdgeDerived(EdgeDerived* cache, const TablePtr& edge);
  /// The cached join side for `edge`, building it on first use.
  Result<TablePtr> EdgeJoinSideFor(EdgeDerived* cache,
                                   const TablePtr& edge) const;
  /// The cached union edge section for `edge`, building it on first use.
  Result<std::shared_ptr<const UnionSection>> EdgeUnionSectionFor(
      EdgeDerived* cache, const TablePtr& edge, int num_partitions) const;
  /// The cached CSR index for `edge`, building it on first use; nullptr
  /// when the edge table's src column is not grouped (callers fall back to
  /// the dense path).
  const CsrIndex* EdgeCsrFor(EdgeDerived* cache, const TablePtr& edge) const;

  mutable EdgeDerived edge_derived_;

  /// One superstep's worker pass over one vertex/edge/message triple — the
  /// whole tables, or one shard's: frontier decision, input build, worker
  /// UDFs. Shared by both superstep loops so they cannot drift apart.
  struct WorkerPass {
    Table output;
    int64_t input_rows = 0;
    bool used_frontier = false;
    int64_t frontier_vertices = 0;
    double input_seconds = 0.0;   ///< frontier decision + input build
    double worker_seconds = 0.0;  ///< per-partition input + Compute
  };
  Result<WorkerPass> RunWorkerPass(
      const TablePtr& vertex, const TablePtr& edge, const TablePtr& message,
      FrontierMode mode, int superstep,
      const std::shared_ptr<const WorkerSharedState>& shared,
      EdgeDerived* cache) const;

  /// Resident shard state of the persistent-sharding path (vertex/edge
  /// PartitionSets, per-shard message tables and cached edge join sides);
  /// null on unsharded runs. Defined in coordinator.cc.
  struct ShardedState;
  std::unique_ptr<ShardedState> sharded_;
};

/// \brief Convenience entry point: loads `graph` into `catalog` (vertex,
/// edge and empty message tables) and runs the program to completion.
Status RunVertexProgram(Catalog* catalog, const Graph& graph,
                        VertexProgram* program,
                        VertexicaOptions options = {},
                        GraphTableNames names = {}, RunStats* stats = nullptr);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_COORDINATOR_H_
