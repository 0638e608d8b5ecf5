#include "vertexica/coordinator.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <ostream>
#include <sstream>

#include "catalog/catalog_io.h"
#include "common/cancel.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/exec_knobs.h"
#include "exec/frontier.h"
#include "exec/merge_join.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "storage/compression.h"
#include "storage/partition.h"
#include "storage/sort.h"
#include "udf/transform.h"
#include "vertexica/worker.h"

namespace vertexica {

// storage/ cannot see udf/, so the default ShardingSpec hard-codes the
// vertex-batching partition count; pin the two constants together here,
// where both headers are visible — the shard/batch alignment invariant
// (shards = contiguous blocks of the batching partitions) depends on it.
static_assert(ShardingSpec{}.base_partitions == kDefaultTransformPartitions,
              "ShardingSpec::base_partitions must default to the "
              "vertex-batching partition count");

namespace {

/// True when every vertex has voted to halt. With `halted_count` the scan
/// also counts the halted vertices (one full pass — the frontier path's
/// threshold decision reuses this instead of a second traversal); without
/// it the scan exits at the first non-halted vertex.
bool AllHalted(const Table& vertex, int64_t* halted_count = nullptr) {
  const Column* halted = vertex.ColumnByName("halted");
  if (halted == nullptr) {
    if (halted_count != nullptr) *halted_count = 0;
    return false;
  }
  // Stored encoded between supersteps: one comparison per run instead of
  // per vertex (an all-halted column is a single run).
  if (const auto* runs = halted->rle_runs()) {
    int64_t count = 0;
    for (const RleRun& run : *runs) {
      if (run.value != 0) {
        count += run.length;
      } else if (halted_count == nullptr) {
        return false;
      }
    }
    if (halted_count != nullptr) *halted_count = count;
    return count == vertex.num_rows();
  }
  // Plain path, word-at-a-time: AppendBool stores canonical 0/1 bytes, so
  // an all-halted word compares equal to kAllHalted and the per-word halted
  // count is just its popcount.
  constexpr uint64_t kAllHalted = 0x0101010101010101ull;
  const std::vector<uint8_t>& bytes = halted->bools();
  const size_t n = bytes.size();
  int64_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    if (halted_count == nullptr) {
      if (word != kAllHalted) return false;
    } else {
      count += __builtin_popcountll(word);
    }
  }
  for (; i < n; ++i) {
    if (bytes[i] != 0) {
      ++count;
    } else if (halted_count == nullptr) {
      return false;
    }
  }
  if (halted_count != nullptr) *halted_count = count;
  return halted_count == nullptr || count == static_cast<int64_t>(n);
}

/// Actual vs. plain footprint of a stored table (SuperstepStats counters).
void AccountTableBytes(const Table& t, int64_t* encoded, int64_t* decoded) {
  for (int c = 0; c < t.num_columns(); ++c) {
    *encoded += EncodedByteSize(t.column(c));
    *decoded += UncompressedByteSize(t.column(c));
  }
}

/// Catalog name of the checkpoint superstep marker.
std::string MarkerName(const GraphTableNames& names) {
  return names.vertex + "__vx_next_superstep";
}

/// True when `t`'s declared sort order starts with the column named
/// `name`, ascending — the check behind propagating the stored tables'
/// sorted invariants into the superstep join inputs.
bool OrderedByColumn(const Table& t, const std::string& name) {
  if (t.sort_order().empty()) return false;
  const SortKey& k = t.sort_order()[0];
  return k.ascending && t.schema().field(k.column).name == name;
}

/// Debug-audit helper (the VX_DCHECK tier): every row of `t` must be owned
/// by shard `shard` under `spec` — the scatter contract a table routed to a
/// shard carries (NULL keys belong to shard 0). Mirrors
/// PartitionSet::CheckInvariants for tables held outside a PartitionSet
/// (the per-shard message tables).
[[maybe_unused]] Status AuditShardPlacement(const Table& t, int key_column,
                                            const ShardingSpec& spec,
                                            int shard) {
  const Column& keys = t.column(key_column);
  for (int64_t r = 0; r < keys.length(); ++r) {
    const int want = keys.IsNull(r) ? spec.ShardOfNull()
                                    : spec.ShardOfKey(keys.GetInt64(r));
    if (want != shard) {
      return Status::Internal(StringFormat(
          "shard placement violated: row %lld routed to shard %d but its "
          "key is owned by shard %d",
          static_cast<long long>(r), shard, want));
    }
  }
  return Status::OK();
}

/// The active set of one superstep over one vertex/message (shard) pair:
/// one bit per vertex row, plus its popcount.
struct Frontier {
  Bitvector bits;
  int64_t active = 0;
};

/// Decides whether a superstep should take the sparse frontier path and, if
/// so, derives the active set: non-halted vertices ∪ message receivers —
/// exactly the vertices whose Compute the worker would run (worker.cc's
/// activity rule), so restricting the input to them cannot change any
/// output row.
///
/// Gates, cheapest first: the knob (`mode` off), superstep 0 (everything is
/// active by definition), and the structural precondition that the vertex
/// table is declared sorted by id — receiver lookup is then a binary search
/// per message destination. Both update paths keep the declaration: the
/// in-place scatter re-declares it and the replace rebuild re-sorts.
/// Under `auto` the halted scan short-circuits the build: active ≥
/// non-halted, so a non-halted fraction above `threshold` is already a
/// dense verdict before any bit is set.
bool ComputeFrontier(const Table& vertex, const Table& message,
                     FrontierMode mode, int superstep, double threshold,
                     Frontier* out) {
  if (mode == FrontierMode::kOff || superstep == 0) return false;
  if (!OrderedByColumn(vertex, "id")) return false;
  const int64_t num_vertices = vertex.num_rows();
  if (num_vertices == 0) return false;
  const double budget =
      threshold * static_cast<double>(num_vertices);  // auto-mode bound

  int64_t halted_rows = 0;
  AllHalted(vertex, &halted_rows);
  const int64_t non_halted = num_vertices - halted_rows;
  if (mode == FrontierMode::kAuto &&
      static_cast<double>(non_halted) > budget) {
    return false;
  }

  Bitvector bits(num_vertices);
  // Non-halted vertices, straight from the stored halted column (RLE runs
  // when encoded — a mostly-halted column is a handful of runs).
  const Column* halted = vertex.ColumnByName("halted");
  if (halted != nullptr) {
    if (const auto* runs = halted->rle_runs()) {
      const auto& starts = *halted->rle_run_starts();
      for (size_t k = 0; k < runs->size(); ++k) {
        if ((*runs)[k].value != 0) continue;
        const int64_t end = starts[k] + (*runs)[k].length;
        for (int64_t r = starts[k]; r < end; ++r) bits.Set(r);
      }
    } else {
      const auto& bytes = halted->bools();
      for (int64_t r = 0; r < num_vertices; ++r) {
        if (bytes[static_cast<size_t>(r)] == 0) bits.Set(r);
      }
    }
  }

  // Message receivers, binary-searched against the sorted id column.
  // Destinations outside the vertex table (orphan messages) set no bit;
  // the full message table is passed through either way and the worker
  // skips those groups identically on both paths. One search per RLE run
  // when the dst column is encoded; consecutive-duplicate skip otherwise
  // (the join path keeps messages sorted by receiver).
  const Column* dst = message.ColumnByName("dst");
  if (dst != nullptr && message.num_rows() > 0) {
    const auto& ids = vertex.ColumnByName("id")->ints();
    const auto set_receiver = [&](int64_t d) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), d);
      if (it != ids.end() && *it == d) bits.Set(it - ids.begin());
    };
    if (const auto* runs = dst->rle_runs()) {
      for (const RleRun& run : *runs) set_receiver(run.value);
    } else {
      const auto& dsts = dst->ints();
      for (size_t r = 0; r < dsts.size(); ++r) {
        if (r > 0 && dsts[r] == dsts[r - 1]) continue;
        set_receiver(dsts[r]);
      }
    }
  }

  const int64_t active = bits.CountOnes();
  if (mode == FrontierMode::kAuto && static_cast<double>(active) > budget) {
    return false;
  }
  out->bits = std::move(bits);
  out->active = active;
  return true;
}

/// Fused-split projection of the worker output onto vertex updates:
/// (id, halted, v0..v{va-1}).
std::vector<ProjectionSpec> UpdateProjection(int va) {
  std::vector<ProjectionSpec> proj = {{"id", Col("id")},
                                      {"halted", Col("halted")}};
  for (int i = 0; i < va; ++i) {
    proj.push_back({StringFormat("v%d", i), Col(StringFormat("p%d", i))});
  }
  return proj;
}

/// Fused-split projection of the worker output onto new messages:
/// (src, dst, m0..m{ma-1}); sender is `other`, receiver is `id`.
std::vector<ProjectionSpec> MessageProjection(int ma) {
  std::vector<ProjectionSpec> proj = {{"src", Col("other")},
                                      {"dst", Col("id")}};
  for (int i = 0; i < ma; ++i) {
    proj.push_back({StringFormat("m%d", i), Col(StringFormat("p%d", i))});
  }
  return proj;
}

/// One pass over a worker-output table: the active-vertex count plus the
/// kind-3 aggregator partial rows as (aggregator index, partial) pairs in
/// row order. Collected rather than merged so the sharded path can replay
/// the merges across shards in global row order — the exact fold sequence
/// of the unsharded loop.
struct WorkerOutputScan {
  int64_t active = 0;
  std::vector<std::pair<int64_t, double>> aggregate_rows;
};

WorkerOutputScan ScanWorkerOutput(const Table& out) {
  WorkerOutputScan scan;
  const auto& kinds = out.column(1).ints();
  const auto& others = out.column(2).ints();
  const auto& p0 = out.column(4).doubles();
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    const auto sr = static_cast<size_t>(r);
    if (kinds[sr] == kVertexTuple) {
      ++scan.active;
    } else if (kinds[sr] == kAggregateTuple) {
      scan.aggregate_rows.emplace_back(others[sr], p0[sr]);
    }
  }
  return scan;
}

/// The fused σ→π worker-output split (updates, new messages, aggregate
/// scan) — one definition shared by the sharded and unsharded superstep
/// loops, so the two paths cannot drift apart and break their documented
/// bit-identity contract.
struct SplitOutputs {
  Table updates;
  Table messages;
  WorkerOutputScan scan;
};

Result<SplitOutputs> SplitWorkerOutput(const std::shared_ptr<const Table>& out,
                                       int va, int ma) {
  SplitOutputs split;
  // Vertex updates: kind=0 rows with other=1 (state actually changed).
  VX_ASSIGN_OR_RETURN(
      split.updates,
      ParallelFilterProject(
          out,
          And(Eq(Col("kind"), Lit(static_cast<int64_t>(kVertexTuple))),
              Eq(Col("other"), Lit(int64_t{1}))),
          UpdateProjection(va)));
  // New messages: kind=2 rows; sender is `other`, receiver is `id`.
  VX_ASSIGN_OR_RETURN(
      split.messages,
      ParallelFilterProject(
          out, Eq(Col("kind"), Lit(static_cast<int64_t>(kMessageTuple))),
          MessageProjection(ma)));
  split.scan = ScanWorkerOutput(*out);
  return split;
}

/// Folds collected aggregator partials into `aggregates` in the order
/// given — callers pass rows in global worker-output row order.
void MergeAggregateRows(const std::vector<AggregatorSpec>& agg_specs,
                        const std::vector<std::pair<int64_t, double>>& rows,
                        std::map<std::string, double>* aggregates) {
  for (const auto& [index, partial] : rows) {
    const auto idx = static_cast<size_t>(index);
    if (idx < agg_specs.size()) {
      const auto& spec = agg_specs[idx];
      double& slot = (*aggregates)[spec.name];
      slot = MergeAggregate(spec.kind, slot, partial);
    }
  }
}

/// Stable-sorts a message table by receiver — a no-op when that order is
/// declared. The stored message table keeps this invariant on both input
/// paths: the join path's vertex ⟕ message join merges instead of hashing,
/// and the union path's message section merges without a sort. Each
/// receiver's messages keep their arrival order, so worker-visible message
/// streams (and results) are unchanged. Not gated on the merge knob (see
/// the bit-identity note at the top of Coordinator::Run).
Result<Table> SortedByReceiver(Table messages) {
  VX_ASSIGN_OR_RETURN(int dst_c, messages.ColumnIndex("dst"));
  if (messages.num_rows() > 0 && !OrderedByColumn(messages, "dst")) {
    return SortTable(messages, {{dst_c, true}});
  }
  if (messages.sort_order().empty()) {
    messages.SetSortOrder({{dst_c, true}});  // 0 rows: vacuously so
  }
  return messages;
}

AggOp CombinerToAggOp(MessageCombiner c) {
  switch (c) {
    case MessageCombiner::kSum:
      return AggOp::kSum;
    case MessageCombiner::kMin:
      return AggOp::kMin;
    case MessageCombiner::kMax:
      return AggOp::kMax;
    case MessageCombiner::kNone:
      break;
  }
  return AggOp::kSum;
}

}  // namespace

/// Resident state of the persistent-sharding path, built once per run:
/// vertex shards (replaced in place as supersteps apply updates), immutable
/// edge shards with their derived-structure caches, and the per-shard
/// message tables swapped by the between-superstep exchange.
struct Coordinator::ShardedState {
  ShardingSpec spec;
  PartitionSet vertex;
  PartitionSet edge;
  std::vector<TablePtr> message;
  /// Per-edge-shard caches, built lazily like the unsharded loop's (a
  /// dense run never pays for a CSR index). Race-free without locks: each
  /// shard's slot is touched only by the one ParallelFor task that owns
  /// that shard in a superstep, and cross-superstep visibility rides the
  /// pool's submit/join synchronization.
  std::vector<EdgeDerived> edge_derived;
};

Coordinator::Coordinator(Catalog* catalog, VertexProgram* program,
                         VertexicaOptions options, GraphTableNames names)
    : catalog_(catalog),
      program_(program),
      options_(options),
      names_(std::move(names)) {}

Coordinator::~Coordinator() = default;

Result<Coordinator::TablePtr> Coordinator::BuildEdgeJoinSide(
    const TablePtr& edge) const {
  // The edge side is identical every superstep (the coordinator never
  // rewrites the edge table): project/number/declare it once per run and
  // reuse the shared snapshot. The esrc key column is re-encoded RLE —
  // one run per source vertex on the (src, dst)-sorted layout — so the
  // merge join matches whole runs without decoding it.
  VX_ASSIGN_OR_RETURN(Table edges,
                      ParallelProject(edge, {{"esrc", Col("src")},
                                             {"edst", Col("dst")},
                                             {"eweight", Col("weight")}}));
  edges = WithRowNumbers(edges, "edge_seq");
  if (AmbientEncodingMode() != EncodingMode::kOff) {
    edges.mutable_column(0)->Encode(AmbientEncodingMode());
  }
  if (edge->OrderCoversKeys({0, 1})) {
    edges.SetSortOrder({{0, true}, {1, true}});
  } else if (OrderedByColumn(*edge, "src")) {
    edges.SetSortOrder({{0, true}});
  }
  return std::make_shared<const Table>(std::move(edges));
}

Result<Table> Coordinator::BuildJoinInputWithEdgeSide(
    const TablePtr& vertex, const TablePtr& edge_side,
    const TablePtr& message) const {
  const int ma = program_->message_arity();

  // The "traditional database wisdom" plan §2.3 argues against: a 3-way
  // join of vertex ⟕ message ⟕ edge. Sequence-number columns let the worker
  // undo the |messages| × |edges| fan-out per vertex. The projections run
  // morsel-parallel and the left joins are the parallel hash joins behind
  // PlanBuilder::Join.
  std::vector<ProjectionSpec> mproj = {{"mdst", Col("dst")},
                                       {"msender", Col("src")}};
  for (int i = 0; i < ma; ++i) {
    mproj.push_back({StringFormat("mm%d", i), Col(StringFormat("m%d", i))});
  }
  VX_ASSIGN_OR_RETURN(Table msgs, ParallelProject(message, mproj));
  msgs = WithRowNumbers(msgs, "msg_seq");

  // Propagate the stored message table's sorted invariant onto the
  // projected side (projection and row-numbering preserve row order):
  // message is kept sorted by receiver. With the vertex table sorted by
  // id and the cached edge side, the planner turns both left joins into
  // merge joins — zero hash builds per superstep (exec/merge_join.h).
  if (OrderedByColumn(*message, "dst")) msgs.SetSortOrder({{0, true}});

  // vertex columns: id, halted, v0..v{va-1}; the JoinWorker resolves them
  // by name.
  return PlanBuilder::Scan(vertex)
      .Join(PlanBuilder::Scan(std::move(msgs)), {"id"}, {"mdst"},
            JoinType::kLeft)
      .Join(PlanBuilder::Scan(edge_side), {"id"}, {"esrc"},
            JoinType::kLeft)
      .Execute();
}

void Coordinator::SyncEdgeDerived(EdgeDerived* cache, const TablePtr& edge) {
  if (cache->source == edge) return;
  // A different snapshot — including an edge table replaced mid-run (the
  // dynamic-graph path): drop every derived structure together so nothing
  // stale can pair with the new rows.
  *cache = EdgeDerived{};
  cache->source = edge;
}

Result<Coordinator::TablePtr> Coordinator::EdgeJoinSideFor(
    EdgeDerived* cache, const TablePtr& edge) const {
  SyncEdgeDerived(cache, edge);
  if (cache->join_side == nullptr) {
    VX_ASSIGN_OR_RETURN(cache->join_side, BuildEdgeJoinSide(edge));
  }
  return cache->join_side;
}

Result<std::shared_ptr<const UnionSection>> Coordinator::EdgeUnionSectionFor(
    EdgeDerived* cache, const TablePtr& edge, int num_partitions) const {
  SyncEdgeDerived(cache, edge);
  if (cache->union_section == nullptr) {
    VX_ASSIGN_OR_RETURN(UnionSection section,
                        BuildUnionSection(UnionSectionKind::kEdge, edge,
                                          *program_, num_partitions));
    cache->union_section =
        std::make_shared<const UnionSection>(std::move(section));
  }
  return cache->union_section;
}

const CsrIndex* Coordinator::EdgeCsrFor(EdgeDerived* cache,
                                        const TablePtr& edge) const {
  SyncEdgeDerived(cache, edge);
  if (cache->csr == nullptr && !cache->csr_failed) {
    const Column* src = edge->ColumnByName("src");
    if (src != nullptr) cache->csr = CsrIndex::Build(*src);
    cache->csr_failed = cache->csr == nullptr;
    if (cache->csr != nullptr) {
      // The index is cached across supersteps keyed on this snapshot; prove
      // once that it describes exactly this key column.
      VX_DCHECK_OK(cache->csr->CheckInvariants(*src));
    }
  }
  return cache->csr.get();
}

Result<Table> Coordinator::BuildJoinInputFrontier(
    const TablePtr& vertex, const TablePtr& edge_side,
    const TablePtr& message, const Bitvector& frontier) const {
  // Only the probe (vertex) side is restricted; the message and edge build
  // sides stay whole, so their msg_seq/edge_seq numbering — what the worker
  // uses to undo the join fan-out — is untouched. Join output is
  // probe-row-major, so dropping probe rows that produce no worker output
  // leaves the surviving rows' relative order (and the per-vertex streams)
  // bit-identical to the dense plan's.
  Table active = vertex->Take(frontier.SetIndices());
  // Take conservatively drops the declared order, but the gather indices
  // are ascending over an id-sorted table (a frontier precondition) — the
  // restriction is still id-sorted; re-declare it so the superstep joins
  // keep merging.
  VX_ASSIGN_OR_RETURN(int id_c, active.ColumnIndex("id"));
  active.SetSortOrder({{id_c, true}});
  return BuildJoinInputWithEdgeSide(
      std::make_shared<const Table>(std::move(active)), edge_side, message);
}

Result<Table> Coordinator::UpdateVerticesInPlace(const Table& vertex,
                                                 const Table& updates) const {
  const int va = program_->value_arity();
  Table out = vertex;  // copy-on-write of the stored version
  VX_ASSIGN_OR_RETURN(int id_c, out.ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int halted_c, out.ColumnIndex("halted"));
  // The scatter rewrites halted/value cells in place but never moves rows
  // and never touches ids, so a declared sorted-by-id order survives;
  // remember it and re-declare after the mutable_column accesses below
  // conservatively drop it. (Only the id key is safe to re-declare — the
  // other columns are exactly the ones being rewritten.)
  const bool ordered_by_id = OrderedByColumn(out, "id");

  Int64HashMap<int64_t> row_of(static_cast<size_t>(out.num_rows()));
  const auto& ids = out.column(id_c).ints();
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    row_of.GetOrInsert(ids[static_cast<size_t>(r)], r);
  }

  auto& halted = *out.mutable_column(halted_c)->mutable_bools();
  std::vector<std::vector<double>*> vcols(static_cast<size_t>(va));
  for (int i = 0; i < va; ++i) {
    VX_ASSIGN_OR_RETURN(int c, out.ColumnIndex(StringFormat("v%d", i)));
    vcols[static_cast<size_t>(i)] = out.mutable_column(c)->mutable_doubles();
  }

  VX_ASSIGN_OR_RETURN(int uid_c, updates.ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int uhalted_c, updates.ColumnIndex("halted"));
  std::vector<const std::vector<double>*> ucols(static_cast<size_t>(va));
  for (int i = 0; i < va; ++i) {
    VX_ASSIGN_OR_RETURN(int c, updates.ColumnIndex(StringFormat("v%d", i)));
    ucols[static_cast<size_t>(i)] = &updates.column(c).doubles();
  }

  // Morsel-parallel scatter: worker output contains at most one update row
  // per vertex, so every target row is written by exactly one morsel.
  const auto& uids = updates.column(uid_c).ints();
  const auto& uhalted = updates.column(uhalted_c).bools();
  // ambient-ok: the lambda reads no knobs; ExecThreads() below is the
  // thread-count argument, evaluated on the submitting thread.
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(updates.num_rows()),
      static_cast<size_t>(kDefaultMorselRows),
      [&](size_t begin, size_t end) {
        for (size_t su = begin; su < end; ++su) {
          const int64_t* row = row_of.Find(uids[su]);
          if (row == nullptr) continue;
          const auto sr = static_cast<size_t>(*row);
          halted[sr] = uhalted[su];
          for (int i = 0; i < va; ++i) {
            (*vcols[static_cast<size_t>(i)])[sr] =
                (*ucols[static_cast<size_t>(i)])[su];
          }
        }
        return Status::OK();
      },
      ExecThreads()));
  if (ordered_by_id) out.SetSortOrder({{id_c, true}});
  return out;
}

Result<Table> Coordinator::CombineMessages(Table messages) const {
  if (!options_.use_combiner ||
      program_->combiner() == MessageCombiner::kNone ||
      messages.num_rows() == 0) {
    return messages;
  }
  const int ma = program_->message_arity();
  const AggOp op = CombinerToAggOp(program_->combiner());
  std::vector<AggSpec> specs;
  for (int i = 0; i < ma; ++i) {
    specs.push_back({op, StringFormat("m%d", i), StringFormat("m%d", i)});
  }
  std::vector<ProjectionSpec> cproj = {{"src", Lit(int64_t{-1})},
                                       {"dst", Col("dst")}};
  for (int i = 0; i < ma; ++i) {
    cproj.push_back({StringFormat("m%d", i), Col(StringFormat("m%d", i))});
  }
  return PlanBuilder::Scan(std::move(messages))
      .Aggregate({"dst"}, std::move(specs))
      .Project(std::move(cproj))
      .Execute();
}

Result<Table> Coordinator::RebuildVertices(const Table& vertex,
                                           const Table& updates) const {
  // §2.3 replace path: new_vertex = (vertex ANTI JOIN updates) ∪ updates,
  // i.e. a bulk rebuild instead of row updates.
  return PlanBuilder::Scan(vertex)
      .Join(PlanBuilder::Scan(updates).Select({"id"}), {"id"}, {"id"},
            JoinType::kAnti)
      .Union(PlanBuilder::Scan(updates))
      .Execute();
}

Status Coordinator::RestoreSortedInvariant(
    const std::string& table_name, const std::vector<std::string>& keys) const {
  if (!catalog_->HasTable(table_name)) return Status::OK();
  VX_ASSIGN_OR_RETURN(auto table, catalog_->GetTable(table_name));
  std::vector<SortKey> order;
  std::vector<int> cols;
  for (const std::string& k : keys) {
    VX_ASSIGN_OR_RETURN(int c, table->ColumnIndex(k));
    cols.push_back(c);
    order.push_back({c, true});
  }
  if (table->OrderCoversKeys(cols)) return Status::OK();  // already declared
  // Not verifiably sorted: leave it undeclared — the union input's merge
  // stable-sorts undeclared sections, the join path hashes, and the
  // per-superstep maintenance re-sorts the tables it rewrites.
  if (!TableSortedOnKeys(*table, cols)) return Status::OK();
  // ReplaceTable needs a value, so attaching the declaration costs one
  // table copy — paid once per run, and only when the declaration is
  // missing (i.e. a checkpoint-restored catalog), never on a fresh load.
  Table declared = *table;
  declared.SetSortOrder(std::move(order));
  return catalog_->ReplaceTable(table_name, std::move(declared));
}

Result<Coordinator::WorkerPass> Coordinator::RunWorkerPass(
    const TablePtr& vertex, const TablePtr& edge, const TablePtr& message,
    FrontierMode mode, int superstep,
    const std::shared_ptr<const WorkerSharedState>& shared,
    EdgeDerived* cache) const {
  WorkerPass pass;
  TransformOptions topts;
  topts.num_workers = options_.num_workers;
  topts.num_partitions = options_.num_partitions;
  topts.sort_columns = {0};
  const int partitions = ResolveTransformParallelism(topts).partitions;

  // ---- Worker input: frontier (sparse) or dense build. -----------------
  // The frontier decision is part of the measured input phase — deriving
  // the active set is a cost the sparse path pays, so input_seconds must
  // charge for it.
  WallTimer timer;
  Frontier frontier;
  pass.used_frontier = ComputeFrontier(*vertex, *message, mode, superstep,
                                       options_.frontier_threshold,
                                       &frontier);
  // The frontier bitvector gates which vertices compute this superstep;
  // its word-tail hygiene is what the popcount/AND/OR shortcuts assume.
  if (pass.used_frontier) VX_DCHECK_OK(frontier.bits.CheckInvariants());
  UnionInput union_input;
  Table join_input;
  if (options_.use_union_input) {
    const CsrIndex* csr =
        pass.used_frontier ? EdgeCsrFor(cache, edge) : nullptr;
    pass.used_frontier = pass.used_frontier && csr != nullptr;
    if (pass.used_frontier) {
      VX_ASSIGN_OR_RETURN(
          union_input,
          BuildUnionInputFrontier(vertex, edge, message, frontier.bits, *csr,
                                  *program_, partitions));
    } else {
      VX_ASSIGN_OR_RETURN(auto edge_section,
                          EdgeUnionSectionFor(cache, edge, partitions));
      VX_ASSIGN_OR_RETURN(
          union_input, BuildUnionInput(vertex, std::move(edge_section),
                                       message, *program_, partitions));
    }
    pass.input_rows = union_input.num_rows();
  } else {
    VX_ASSIGN_OR_RETURN(TablePtr edge_side, EdgeJoinSideFor(cache, edge));
    if (pass.used_frontier) {
      VX_ASSIGN_OR_RETURN(join_input,
                          BuildJoinInputFrontier(vertex, edge_side, message,
                                                 frontier.bits));
    } else {
      VX_ASSIGN_OR_RETURN(
          join_input, BuildJoinInputWithEdgeSide(vertex, edge_side, message));
    }
    pass.input_rows = join_input.num_rows();
  }
  pass.frontier_vertices = pass.used_frontier ? frontier.active : 0;
  pass.input_seconds = timer.ElapsedSeconds();

  // ---- Vertex batching (§2.3): id-sorted partitions, parallel UDFs. ----
  // The union path makes each partition inside its worker task by merging
  // the section parts; the join input is hash-partitioned on id (column 0)
  // and each partition sorted on id.
  timer.Restart();
  if (options_.use_union_input) {
    VX_ASSIGN_OR_RETURN(
        pass.output,
        RunTransform(
            [&union_input](int p) -> Result<Table> {
              return union_input.Partition(p);
            },
            [shared]() -> std::unique_ptr<TransformUdf> {
              return std::make_unique<Worker>(shared);
            },
            topts));
  } else {
    VX_ASSIGN_OR_RETURN(
        pass.output,
        ApplyTransform(
            join_input, 0,
            [shared]() -> std::unique_ptr<TransformUdf> {
              return std::make_unique<JoinWorker>(shared);
            },
            topts));
  }
  pass.worker_seconds = timer.ElapsedSeconds();
  return pass;
}

Status Coordinator::Run(RunStats* stats) {
  const int va = program_->value_arity();
  const int ma = program_->message_arity();
  const int arity = PayloadArity(*program_);
  if (va <= 0 || ma <= 0) {
    return Status::InvalidArgument("vertex program arities must be positive");
  }

  const auto agg_specs = program_->aggregators();
  prev_aggregates_.clear();

  // The ablation switch: use_merge_join=false pins the hash joins for the
  // whole run; when true, the ambient knob (VERTEXICA_MERGE_JOIN /
  // ScopedMergeJoin) still governs, like the encoding mode.
  std::optional<ScopedMergeJoin> scoped_merge;
  if (!options_.use_merge_join) scoped_merge.emplace(false);

  // The sorted-invariant maintenance below is NOT gated on the merge-join
  // knob (nor on the input path), so toggling use_merge_join
  // (or VERTEXICA_MERGE_JOIN) swaps exactly one thing: the physical join
  // operator. Table row orders, worker inputs, and therefore results are
  // bit-identical by construction between the two paths.

  // A restored checkpoint carries the rows but not the sort-order
  // declarations (catalog_io persists none); re-establish them up front
  // (one verification pass per table), on both input paths, so a resumed
  // run merges, takes the frontier and skips section sorts like a fresh
  // one instead of silently falling back for the rest of the run.
  VX_RETURN_NOT_OK(RestoreSortedInvariant(names_.vertex, {"id"}));
  VX_RETURN_NOT_OK(RestoreSortedInvariant(names_.edge, {"src", "dst"}));
  VX_RETURN_NOT_OK(RestoreSortedInvariant(names_.message, {"dst"}));

  // §1 durability: resume from a checkpoint marker restored by LoadCatalog.
  int first_superstep = 0;
  if (options_.resume_from_checkpoint &&
      catalog_->HasTable(MarkerName(names_))) {
    VX_ASSIGN_OR_RETURN(auto marker, catalog_->GetTable(MarkerName(names_)));
    if (marker->num_rows() == 1) {
      first_superstep =
          static_cast<int>(marker->column(0).GetInt64(0));
    }
  }

  // Persistent sharding (§2.3 vertex batching made resident): with an
  // effective shard count > 1 the run partitions the graph tables once and
  // loops shard-wise. The shard count is capped at the vertex-batching
  // partition count — shards are contiguous blocks of those partitions,
  // which is what makes the two paths bit-identical (storage/partition.h).
  const int base_partitions = options_.num_partitions > 0
                                  ? options_.num_partitions
                                  : kDefaultTransformPartitions;
  const int num_shards = std::min(
      options_.num_shards > 0 ? options_.num_shards : ExecShards(),
      base_partitions);
  if (num_shards > 1) {
    return RunSharded(stats, num_shards, base_partitions, first_superstep);
  }

  WallTimer total_timer;
  for (int superstep = first_superstep;
       superstep < options_.max_supersteps; ++superstep) {
    // Superstep boundary: the natural stopping point of a cancelled or
    // past-deadline run — the catalog still holds the last completed
    // superstep's consistent state.
    VX_RETURN_NOT_OK(CheckAmbientCancel());
    VX_FAULT_POINT("coordinator.superstep");
    WallTimer step_timer;
    // Which physical join path this superstep's plans take (input build +
    // replace-path rebuild), published via SuperstepStats.
    JoinPathStats join_stats;
    ScopedJoinStatsCollector join_collector(&join_stats);
    VX_ASSIGN_OR_RETURN(auto vertex, catalog_->GetTable(names_.vertex));
    VX_ASSIGN_OR_RETURN(auto edge, catalog_->GetTable(names_.edge));
    VX_ASSIGN_OR_RETURN(auto message, catalog_->GetTable(names_.message));

    // Stored-procedure loop condition: "it runs as long as there is any
    // message for the next superstep" (plus Pregel's not-yet-halted rule).
    if (superstep > 0 && message->num_rows() == 0 && AllHalted(*vertex)) {
      break;
    }

    auto shared = std::make_shared<WorkerSharedState>();
    shared->program = program_;
    shared->superstep = superstep;
    shared->num_vertices = vertex->num_rows();
    shared->payload_arity = arity;
    shared->prev_aggregates = &prev_aggregates_;
    for (const auto& spec : agg_specs) {
      shared->aggregator_kinds[spec.name] = spec.kind;
      shared->aggregator_names.push_back(spec.name);
    }

    VX_ASSIGN_OR_RETURN(
        WorkerPass pass,
        RunWorkerPass(vertex, edge, message, AmbientFrontierMode(), superstep,
                      shared, &edge_derived_));
    WallTimer phase_timer;

    // Shared snapshot so the two split scans below range-scan it in
    // parallel without copying.
    const auto out = std::make_shared<const Table>(std::move(pass.output));

    // ---- Split the worker output (fused σ→π, morsel-parallel). --------
    VX_ASSIGN_OR_RETURN(SplitOutputs split, SplitWorkerOutput(out, va, ma));
    Table updates = std::move(split.updates);
    Table new_messages = std::move(split.messages);
    const int64_t active = split.scan.active;
    std::map<std::string, double> new_aggregates;
    for (const auto& spec : agg_specs) {
      new_aggregates[spec.name] = AggregatorIdentity(spec.kind);
    }
    MergeAggregateRows(agg_specs, split.scan.aggregate_rows,
                       &new_aggregates);

    // ---- Message combining. -------------------------------------------
    VX_ASSIGN_OR_RETURN(new_messages,
                        CombineMessages(std::move(new_messages)));

    // ---- Sorted-message invariant. --------------------------------------
    VX_ASSIGN_OR_RETURN(new_messages,
                        SortedByReceiver(std::move(new_messages)));

    const double split_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Update vs. replace (§2.3). -----------------------------------
    // Both stored tables are (re-)encoded before the swap so they stay
    // compressed between supersteps (storage/encoding.h); the next
    // superstep's scans and projections decode lazily, and whole-table
    // passes like AllHalted read runs directly. Value-neutral: results are
    // bit-identical with the encoding knob off.
    const EncodingMode enc_mode = AmbientEncodingMode();
    int64_t encoded_bytes = 0;
    int64_t decoded_bytes = 0;
    bool used_replace = false;
    if (updates.num_rows() > 0) {
      Table new_vertex;
      const double frac = static_cast<double>(updates.num_rows()) /
                          static_cast<double>(std::max<int64_t>(
                              1, vertex->num_rows()));
      if (frac < options_.update_threshold) {
        VX_ASSIGN_OR_RETURN(new_vertex,
                            UpdateVerticesInPlace(*vertex, updates));
      } else {
        used_replace = true;
        VX_ASSIGN_OR_RETURN(new_vertex, RebuildVertices(*vertex, updates));
        // The anti-join ∪ union rebuild breaks the sorted-by-id invariant
        // (updated rows land at the tail); restore it on both input paths —
        // the join path's merge joins and the frontier's receiver binary
        // search both key on it. Stable and id-keyed, so results are
        // unchanged: every id owns exactly one vertex row and the worker
        // input is stable-sorted by id per partition, so vertex-table row
        // order never reaches a per-vertex tuple stream. Not gated on the
        // merge or frontier knobs (see the bit-identity note at the top
        // of Run).
        if (!OrderedByColumn(new_vertex, "id")) {
          VX_ASSIGN_OR_RETURN(int id_c, new_vertex.ColumnIndex("id"));
          new_vertex = SortTable(new_vertex, {{id_c, true}});
        }
      }
      if (enc_mode != EncodingMode::kOff) new_vertex.EncodeColumns(enc_mode);
      // Post-apply audit: the table about to be published must honor every
      // structural claim it carries (sorted-by-id declaration, encodings,
      // zone maps) — downstream supersteps trust them blindly.
      VX_DCHECK_OK(new_vertex.CheckInvariants());
      AccountTableBytes(new_vertex, &encoded_bytes, &decoded_bytes);
      VX_RETURN_NOT_OK(
          catalog_->ReplaceTable(names_.vertex, std::move(new_vertex)));
    } else {
      AccountTableBytes(*vertex, &encoded_bytes, &decoded_bytes);
    }

    if (enc_mode != EncodingMode::kOff) new_messages.EncodeColumns(enc_mode);
    VX_DCHECK_OK(new_messages.CheckInvariants());
    const int64_t messages_sent = new_messages.num_rows();
    AccountTableBytes(new_messages, &encoded_bytes, &decoded_bytes);
    VX_RETURN_NOT_OK(
        catalog_->ReplaceTable(names_.message, std::move(new_messages)));
    prev_aggregates_ = std::move(new_aggregates);

    if (stats != nullptr) {
      SuperstepStats s;
      s.superstep = superstep;
      s.input_rows = pass.input_rows;
      s.active_vertices = active;
      s.vertex_updates = updates.num_rows();
      s.messages_sent = messages_sent;
      s.seconds = step_timer.ElapsedSeconds();
      s.used_replace = used_replace;
      s.input_seconds = pass.input_seconds;
      s.worker_seconds = pass.worker_seconds;
      s.split_seconds = split_seconds;
      s.apply_seconds = phase_timer.ElapsedSeconds();
      s.encoded_bytes = encoded_bytes;
      s.decoded_bytes = decoded_bytes;
      s.used_frontier = pass.used_frontier;
      s.frontier_vertices = pass.frontier_vertices;
      s.merge_joins = join_stats.merge_joins;
      s.hash_joins = join_stats.hash_joins;
      s.join_rows = join_stats.merge_rows + join_stats.hash_rows;
      s.join_seconds = join_stats.merge_seconds + join_stats.hash_seconds;
      stats->supersteps.push_back(s);
      stats->total_messages += messages_sent;
      ++(pass.used_frontier ? stats->frontier_supersteps
                            : stats->dense_supersteps);
    }

    if (options_.checkpoint_every > 0 &&
        (superstep + 1) % options_.checkpoint_every == 0) {
      Table marker(Schema({{"next_superstep", DataType::kInt64}}));
      VX_RETURN_NOT_OK(
          marker.AppendRow({Value(static_cast<int64_t>(superstep + 1))}));
      VX_RETURN_NOT_OK(
          catalog_->ReplaceTable(MarkerName(names_), std::move(marker)));
      VX_RETURN_NOT_OK(SaveCatalog(*catalog_, options_.checkpoint_dir));
    }

    if (active == 0 && messages_sent == 0) break;
  }
  if (stats != nullptr) stats->total_seconds = total_timer.ElapsedSeconds();
  return Status::OK();
}

Status Coordinator::RunSharded(RunStats* stats, int num_shards,
                               int base_partitions, int first_superstep) {
  const int va = program_->value_arity();
  const int ma = program_->message_arity();
  const int arity = PayloadArity(*program_);
  const auto agg_specs = program_->aggregators();

  // Timer starts before the sharding setup: the once-per-run partitioning
  // below is this path's analogue of the per-superstep partitioning the
  // unsharded loop pays inside its measured loop, so total_seconds must
  // include it for the two paths to be comparable.
  WallTimer total_timer;

  // ---- Shard the graph tables, once per run. --------------------------
  // Vertex shards by id, edge shards by src, message shards by dst: every
  // worker-input tuple's batching key is its owning vertex, so each shard's
  // input hashes into exactly that shard's block of the vertex-batching
  // partitions. PartitionSet::Build retains sort-order declarations and
  // (ambient-mode permitting) encodings + zone maps per shard, so the
  // per-shard join path sees the same physical design the unsharded path
  // maintains on the whole tables.
  {
    VX_ASSIGN_OR_RETURN(auto vertex0, catalog_->GetTable(names_.vertex));
    VX_ASSIGN_OR_RETURN(auto edge0, catalog_->GetTable(names_.edge));
    VX_ASSIGN_OR_RETURN(auto message0, catalog_->GetTable(names_.message));

    sharded_ = std::make_unique<ShardedState>();
    sharded_->spec.num_shards = num_shards;
    sharded_->spec.base_partitions = base_partitions;
    VX_ASSIGN_OR_RETURN(int vid_c, vertex0->ColumnIndex("id"));
    VX_ASSIGN_OR_RETURN(int esrc_c, edge0->ColumnIndex("src"));
    VX_ASSIGN_OR_RETURN(int mdst_c, message0->ColumnIndex("dst"));
    VX_ASSIGN_OR_RETURN(sharded_->vertex,
                        PartitionSet::Build(*vertex0, vid_c, sharded_->spec));
    VX_ASSIGN_OR_RETURN(sharded_->edge,
                        PartitionSet::Build(*edge0, esrc_c, sharded_->spec));
    VX_ASSIGN_OR_RETURN(std::vector<Table> msg_shards,
                        ShardScatter(*message0, mdst_c, sharded_->spec));
    for (Table& t : msg_shards) {
      sharded_->message.push_back(
          std::make_shared<const Table>(std::move(t)));
    }
    sharded_->edge_derived.resize(static_cast<size_t>(num_shards));
    // Post-scatter audit: the vertex/edge PartitionSets self-audited inside
    // Build; the message shards scattered here carry the same obligations
    // (structure + every row owned by its shard).
    for (int s = 0; s < num_shards; ++s) {
      const auto& ms = sharded_->message[static_cast<size_t>(s)];
      VX_DCHECK_OK(ms->CheckInvariants());
      VX_DCHECK_OK(AuditShardPlacement(*ms, mdst_c, sharded_->spec, s));
    }
  }
  const int64_t total_vertices = sharded_->vertex.total_rows();

  for (int superstep = first_superstep;
       superstep < options_.max_supersteps; ++superstep) {
    // Superstep boundary: see the unsharded loop — the resident shards
    // hold the last completed superstep's consistent state.
    VX_RETURN_NOT_OK(CheckAmbientCancel());
    VX_FAULT_POINT("coordinator.superstep");
    WallTimer step_timer;

    // Stored-procedure loop condition, over the resident shards.
    int64_t message_rows = 0;
    for (const auto& m : sharded_->message) message_rows += m->num_rows();
    if (superstep > 0 && message_rows == 0) {
      bool all_halted = true;
      for (int s = 0; s < num_shards && all_halted; ++s) {
        all_halted = AllHalted(*sharded_->vertex.shard(s));
      }
      if (all_halted) break;
    }

    auto shared = std::make_shared<WorkerSharedState>();
    shared->program = program_;
    shared->superstep = superstep;
    shared->num_vertices = total_vertices;  // global count, not per shard
    shared->payload_arity = arity;
    shared->prev_aggregates = &prev_aggregates_;
    for (const auto& spec : agg_specs) {
      shared->aggregator_kinds[spec.name] = spec.kind;
      shared->aggregator_names.push_back(spec.name);
    }

    // Vertex batching within each shard uses the *global* partition count
    // (RunWorkerPass resolves it from the options, as base_partitions
    // was): a shard's rows only hash into its own contiguous partition
    // block, so the per-shard batches, their order, and therefore every
    // per-vertex tuple stream are exactly those of an unsharded pass.

    // ---- Per-shard dataflow: input → worker → split, shard-parallel. ---
    struct ShardStep {
      int64_t input_rows = 0;
      bool used_frontier = false;
      int64_t frontier_vertices = 0;
      Table updates;
      Table messages;
      WorkerOutputScan scan;
      JoinPathStats join_stats;
    };
    std::vector<ShardStep> step(static_cast<size_t>(num_shards));

    const ExecKnobs knobs = ExecKnobs::Capture();

    WallTimer phase_timer;
    VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
        0, static_cast<size_t>(num_shards), /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          // Pool threads don't inherit the caller's thread-local knobs;
          // reinstall them so the per-shard plans behave exactly like the
          // unsharded loop's, and give each shard its own join-path
          // collector (the ambient one is thread-local too).
          ScopedExecKnobs scoped_knobs(knobs);
          for (size_t s = begin; s < end; ++s) {
            ShardStep& st = step[s];
            ScopedJoinStatsCollector collector(&st.join_stats);
            const auto& vs = sharded_->vertex.shard(static_cast<int>(s));
            const auto& es = sharded_->edge.shard(static_cast<int>(s));
            const auto& ms = sharded_->message[s];
            // Frontier decision per shard: a shard's active fraction is
            // its own (one dense hub shard doesn't force the whole
            // superstep dense). Value-neutral either way — the per-shard
            // frontier build is the unsharded construction applied to the
            // shard's slice of the partition blocks.
            VX_ASSIGN_OR_RETURN(
                WorkerPass pass,
                RunWorkerPass(vs, es, ms, knobs.frontier, superstep, shared,
                              &sharded_->edge_derived[s]));
            st.used_frontier = pass.used_frontier;
            st.frontier_vertices = pass.frontier_vertices;
            st.input_rows = pass.input_rows;
            const auto out =
                std::make_shared<const Table>(std::move(pass.output));
            VX_ASSIGN_OR_RETURN(SplitOutputs split,
                                SplitWorkerOutput(out, va, ma));
            st.updates = std::move(split.updates);
            st.messages = std::move(split.messages);
            st.scan = std::move(split.scan);
          }
          return Status::OK();
        },
        knobs.threads));
    const double worker_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Merge shard results in shard order. ---------------------------
    // Shards are contiguous partition blocks, so concatenation in shard
    // order *is* the unsharded worker-output row order — the aggregate
    // fold below replays exactly the unsharded merge sequence.
    int64_t input_rows = 0;
    int64_t active = 0;
    int64_t total_updates = 0;
    std::map<std::string, double> new_aggregates;
    for (const auto& spec : agg_specs) {
      new_aggregates[spec.name] = AggregatorIdentity(spec.kind);
    }
    for (const ShardStep& st : step) {
      input_rows += st.input_rows;
      active += st.scan.active;
      total_updates += st.updates.num_rows();
      MergeAggregateRows(agg_specs, st.scan.aggregate_rows, &new_aggregates);
    }

    // ---- Message exchange (the only cross-shard traffic). --------------
    // Phase boundary: a worker failure surfaces here in a distributed
    // deployment (ROADMAP #1), so the exchange carries a fault site.
    VX_FAULT_POINT("coordinator.exchange");
    // Concatenate the per-shard outputs in shard order (again the global
    // row order), combine globally — identical combiner input, identical
    // FP fold — then scatter on receiver back to the shards. The scatter
    // preserves per-receiver order, and a per-shard stable sort by dst
    // equals the global sort restricted to the shard, so next superstep's
    // message streams are bit-identical to the unsharded path's.
    int64_t cross_shard = 0;
    Table global_messages(step[0].messages.schema());
    for (int s = 0; s < num_shards; ++s) {
      const Table& msgs = step[static_cast<size_t>(s)].messages;
      if (stats != nullptr) {
        // Boundary-crossing counter only: one hash per produced message,
        // skipped entirely when nobody collects stats.
        VX_ASSIGN_OR_RETURN(int pdst_c, msgs.ColumnIndex("dst"));
        const auto& dsts = msgs.column(pdst_c).ints();
        for (int64_t r = 0; r < msgs.num_rows(); ++r) {
          if (sharded_->spec.ShardOfKey(dsts[static_cast<size_t>(r)]) != s) {
            ++cross_shard;
          }
        }
      }
      VX_RETURN_NOT_OK(global_messages.Append(msgs));
    }
    VX_ASSIGN_OR_RETURN(global_messages,
                        CombineMessages(std::move(global_messages)));
    const int64_t messages_sent = global_messages.num_rows();
    VX_ASSIGN_OR_RETURN(int dst_c, global_messages.ColumnIndex("dst"));
    VX_ASSIGN_OR_RETURN(
        std::vector<Table> routed,
        ShardScatter(global_messages, dst_c, sharded_->spec));
    std::vector<int64_t> shard_message_rows(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      // Sorted-message invariant, per shard; mirrors the unsharded loop.
      VX_ASSIGN_OR_RETURN(
          Table inbound,
          SortedByReceiver(std::move(routed[static_cast<size_t>(s)])));
      if (knobs.encoding != EncodingMode::kOff) {
        inbound.EncodeColumns(knobs.encoding);
      }
      shard_message_rows[static_cast<size_t>(s)] = inbound.num_rows();
      sharded_->message[static_cast<size_t>(s)] =
          std::make_shared<const Table>(std::move(inbound));
      // Post-exchange audit: each shard's inbound message table must honor
      // its structural claims (the declared dst order feeds next
      // superstep's merge joins) and hold only messages routed to it.
      const auto& routed_in = sharded_->message[static_cast<size_t>(s)];
      VX_DCHECK_OK(routed_in->CheckInvariants());
      VX_DCHECK_OK(AuditShardPlacement(*routed_in, dst_c, sharded_->spec, s));
    }
    const double split_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Update vs. replace (§2.3), per shard. -------------------------
    // One global decision from the global update fraction (matching the
    // unsharded path), applied shard-locally — worker updates only ever
    // target vertices of their own shard.
    bool used_replace = false;
    if (total_updates > 0) {
      const double frac =
          static_cast<double>(total_updates) /
          static_cast<double>(std::max<int64_t>(1, total_vertices));
      used_replace = frac >= options_.update_threshold;
      VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
          0, static_cast<size_t>(num_shards), /*grain=*/1,
          [&](size_t begin, size_t end) -> Status {
            ScopedExecKnobs scoped_knobs(knobs);
            for (size_t s = begin; s < end; ++s) {
              if (step[s].updates.num_rows() == 0) continue;
              // The replace-path rebuild joins report into the shard's
              // collector, like the input-build joins above.
              ScopedJoinStatsCollector collector(&step[s].join_stats);
              const auto& vs = sharded_->vertex.shard(static_cast<int>(s));
              Table new_vertex;
              if (!used_replace) {
                VX_ASSIGN_OR_RETURN(
                    new_vertex, UpdateVerticesInPlace(*vs, step[s].updates));
              } else {
                VX_ASSIGN_OR_RETURN(
                    new_vertex, RebuildVertices(*vs, step[s].updates));
                // Both input paths, like the unsharded loop: the sorted
                // invariant feeds the merge joins and the frontier.
                if (!OrderedByColumn(new_vertex, "id")) {
                  VX_ASSIGN_OR_RETURN(int id_c,
                                      new_vertex.ColumnIndex("id"));
                  new_vertex = SortTable(new_vertex, {{id_c, true}});
                }
              }
              if (knobs.encoding != EncodingMode::kOff) {
                new_vertex.EncodeColumns(knobs.encoding);
              }
              sharded_->vertex.ReplaceShard(static_cast<int>(s),
                                            std::move(new_vertex));
            }
            return Status::OK();
          },
          knobs.threads));
      // Post-apply audit: ReplaceShard trusts callers to keep every row in
      // its owning shard; re-prove it (plus per-shard structure) over the
      // whole set before the next superstep reads it.
      VX_DCHECK_OK(sharded_->vertex.CheckInvariants());
    }

    int64_t encoded_bytes = 0;
    int64_t decoded_bytes = 0;
    for (int s = 0; s < num_shards; ++s) {
      AccountTableBytes(*sharded_->vertex.shard(s), &encoded_bytes,
                        &decoded_bytes);
      AccountTableBytes(*sharded_->message[static_cast<size_t>(s)],
                        &encoded_bytes, &decoded_bytes);
    }
    prev_aggregates_ = std::move(new_aggregates);

    if (stats != nullptr) {
      SuperstepStats s;
      s.superstep = superstep;
      s.input_rows = input_rows;
      s.active_vertices = active;
      s.vertex_updates = total_updates;
      s.messages_sent = messages_sent;
      s.seconds = step_timer.ElapsedSeconds();
      s.used_replace = used_replace;
      s.worker_seconds = worker_seconds;  // fused input build + compute
      s.split_seconds = split_seconds;    // split + message exchange
      s.apply_seconds = phase_timer.ElapsedSeconds();
      s.encoded_bytes = encoded_bytes;
      s.decoded_bytes = decoded_bytes;
      s.shards = num_shards;
      s.cross_shard_messages = cross_shard;
      JoinPathStats join_stats;
      for (const ShardStep& st : step) {
        s.shard_input_rows.push_back(st.input_rows);
        s.used_frontier = s.used_frontier || st.used_frontier;
        s.frontier_vertices += st.frontier_vertices;
        join_stats.merge_joins += st.join_stats.merge_joins;
        join_stats.hash_joins += st.join_stats.hash_joins;
        join_stats.merge_rows += st.join_stats.merge_rows;
        join_stats.hash_rows += st.join_stats.hash_rows;
        join_stats.merge_seconds += st.join_stats.merge_seconds;
        join_stats.hash_seconds += st.join_stats.hash_seconds;
      }
      s.shard_messages = shard_message_rows;
      s.merge_joins = join_stats.merge_joins;
      s.hash_joins = join_stats.hash_joins;
      s.join_rows = join_stats.merge_rows + join_stats.hash_rows;
      s.join_seconds = join_stats.merge_seconds + join_stats.hash_seconds;
      stats->supersteps.push_back(s);
      stats->total_messages += messages_sent;
      ++(s.used_frontier ? stats->frontier_supersteps
                         : stats->dense_supersteps);
    }

    if (options_.checkpoint_every > 0 &&
        (superstep + 1) % options_.checkpoint_every == 0) {
      VX_RETURN_NOT_OK(FlushShardsToCatalog());
      Table marker(Schema({{"next_superstep", DataType::kInt64}}));
      VX_RETURN_NOT_OK(
          marker.AppendRow({Value(static_cast<int64_t>(superstep + 1))}));
      VX_RETURN_NOT_OK(
          catalog_->ReplaceTable(MarkerName(names_), std::move(marker)));
      VX_RETURN_NOT_OK(SaveCatalog(*catalog_, options_.checkpoint_dir));
    }

    if (active == 0 && messages_sent == 0) break;
  }
  // Publish the final shard state so catalog readers (ReadVertexValues,
  // follow-up SQL) see the finished run like an unsharded one.
  VX_RETURN_NOT_OK(FlushShardsToCatalog());
  if (stats != nullptr) stats->total_seconds = total_timer.ElapsedSeconds();
  return Status::OK();
}

Status Coordinator::FlushShardsToCatalog() const {
  if (sharded_ == nullptr) return Status::OK();
  Table vertex(sharded_->vertex.shard(0)->schema());
  for (int s = 0; s < sharded_->vertex.num_shards(); ++s) {
    VX_RETURN_NOT_OK(vertex.Append(*sharded_->vertex.shard(s)));
  }
  // Hash blocks interleave ids, so the concatenation is not id-ordered;
  // re-sort (stable, id-keyed — values unchanged) so the stored table
  // carries the same sorted invariant the unsharded path maintains.
  VX_ASSIGN_OR_RETURN(int id_c, vertex.ColumnIndex("id"));
  vertex = SortTable(vertex, {{id_c, true}});
  Table message(sharded_->message[0]->schema());
  for (const auto& m : sharded_->message) {
    VX_RETURN_NOT_OK(message.Append(*m));
  }
  VX_ASSIGN_OR_RETURN(int dst_c, message.ColumnIndex("dst"));
  message = SortTable(message, {{dst_c, true}});
  const EncodingMode mode = AmbientEncodingMode();
  if (mode != EncodingMode::kOff) {
    vertex.EncodeColumns(mode);
    message.EncodeColumns(mode);
  }
  // Post-flush audit: the concatenated, re-sorted, re-encoded tables are
  // what catalog readers will trust from here on.
  VX_DCHECK_OK(vertex.CheckInvariants());
  VX_DCHECK_OK(message.CheckInvariants());
  VX_RETURN_NOT_OK(catalog_->ReplaceTable(names_.vertex, std::move(vertex)));
  return catalog_->ReplaceTable(names_.message, std::move(message));
}

Status RunVertexProgram(Catalog* catalog, const Graph& graph,
                        VertexProgram* program, VertexicaOptions options,
                        GraphTableNames names, RunStats* stats) {
  VX_RETURN_NOT_OK(LoadGraphTables(catalog, graph, *program, names));
  Coordinator coordinator(catalog, program, options, names);
  return coordinator.Run(stats);
}

std::string RunStats::ToJson() const {
  std::ostringstream os;
  os << "{\"total_seconds\":" << total_seconds
     << ",\"total_messages\":" << total_messages
     << ",\"num_supersteps\":" << num_supersteps()
     << ",\"frontier_supersteps\":" << frontier_supersteps
     << ",\"dense_supersteps\":" << dense_supersteps << ",\"supersteps\":[";
  for (size_t i = 0; i < supersteps.size(); ++i) {
    const SuperstepStats& s = supersteps[i];
    if (i > 0) os << ",";
    os << "{\"superstep\":" << s.superstep
       << ",\"input_rows\":" << s.input_rows
       << ",\"active_vertices\":" << s.active_vertices
       << ",\"vertex_updates\":" << s.vertex_updates
       << ",\"messages_sent\":" << s.messages_sent
       << ",\"seconds\":" << s.seconds
       << ",\"used_replace\":" << (s.used_replace ? "true" : "false")
       << ",\"input_seconds\":" << s.input_seconds
       << ",\"worker_seconds\":" << s.worker_seconds
       << ",\"split_seconds\":" << s.split_seconds
       << ",\"apply_seconds\":" << s.apply_seconds
       << ",\"encoded_bytes\":" << s.encoded_bytes
       << ",\"decoded_bytes\":" << s.decoded_bytes
       << ",\"shards\":" << s.shards
       << ",\"cross_shard_messages\":" << s.cross_shard_messages
       << ",\"shard_input_rows\":[";
    for (size_t j = 0; j < s.shard_input_rows.size(); ++j) {
      if (j > 0) os << ",";
      os << s.shard_input_rows[j];
    }
    os << "],\"shard_messages\":[";
    for (size_t j = 0; j < s.shard_messages.size(); ++j) {
      if (j > 0) os << ",";
      os << s.shard_messages[j];
    }
    os << "]"
       << ",\"used_frontier\":" << (s.used_frontier ? "true" : "false")
       << ",\"frontier_vertices\":" << s.frontier_vertices
       << ",\"merge_joins\":" << s.merge_joins
       << ",\"hash_joins\":" << s.hash_joins
       << ",\"join_rows\":" << s.join_rows
       << ",\"join_seconds\":" << s.join_seconds << "}";
  }
  os << "]}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const RunStats& stats) {
  return os << stats.ToJson();
}

}  // namespace vertexica
