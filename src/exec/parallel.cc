#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>

#include "common/cache_sizing.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/batch.h"
#include "exec/filter.h"
#include "exec/kernel_stats.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/vectorized.h"

namespace vertexica {

namespace {

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::atomic<int> g_default_threads{0};
thread_local int tl_thread_override = 0;

}  // namespace

int ExecThreads() {
  if (tl_thread_override > 0) return tl_thread_override;
  const int configured = g_default_threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  static const int env = static_cast<int>(EnvThreadCount());
  if (env > 0) return env;
  static const int hardware = HardwareThreads();
  return hardware;
}

void SetDefaultExecThreads(int n) {
  g_default_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ScopedExecThreads::ScopedExecThreads(int n) : prev_(tl_thread_override) {
  if (n > 0) tl_thread_override = n;
}

ScopedExecThreads::~ScopedExecThreads() { tl_thread_override = prev_; }

MorselPruneFn MakeZonePrune(std::shared_ptr<const Table> table,
                            std::vector<ColumnPredicate> preds) {
  std::vector<ColumnPredicate> active;
  for (auto& pred : preds) {
    const Column* col = table->ColumnByName(pred.column);
    if (col != nullptr && col->zone_map() != nullptr) {
      active.push_back(std::move(pred));
    }
  }
  if (active.empty()) return nullptr;
  return [table = std::move(table),
          active = std::move(active)](int64_t begin, int64_t end) {
    return !MorselMayMatch(*table, active, begin, end);
  };
}

Result<Table> ParallelCollect(std::shared_ptr<const Table> input,
                              const MorselPlanFactory& make_plan,
                              const MorselPruneFn& prune,
                              const ParallelOptions& options) {
  const int64_t rows = input->num_rows();
  const int64_t grain = options.ResolvedGrain();
  const int threads = options.ResolvedThreads();

  // Single morsel (or empty input): run the plan inline over the full range
  // so tiny tables pay no fan-out cost. Morsel boundaries are fixed by
  // `grain`, so this fast path produces the same output as the fan-out.
  if (rows <= grain) {
    auto plan = make_plan(std::make_unique<TableScan>(input,
                                                      kDefaultBatchSize));
    VX_RETURN_NOT_OK(plan.status());
    if (prune != nullptr && rows > 0 && prune(0, rows)) {
      return Table((*plan)->output_schema());
    }
    return Collect(plan->get());
  }

  // The output schema up front (a 0-row plan build, no execution), so
  // pruned morsels can contribute empty-but-typed tables.
  Schema out_schema;
  {
    auto plan = make_plan(
        std::make_unique<TableScan>(input, kDefaultBatchSize, 0, 0));
    VX_RETURN_NOT_OK(plan.status());
    out_schema = (*plan)->output_schema();
  }

  const auto num_morsels = static_cast<size_t>((rows + grain - 1) / grain);
  std::vector<Table> outputs(num_morsels);
  // Captured on the submitting thread: pool workers have no ambient
  // collector of their own, and counters must not depend on whether a
  // morsel ran inline (threads=1 fast path above) or on the pool.
  KernelStats* const kernel_stats = AmbientKernelStats();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(rows), static_cast<size_t>(grain),
      [&](size_t begin, size_t end) -> Status {
        ScopedKernelStats stats_scope(kernel_stats);
        if (prune != nullptr && prune(static_cast<int64_t>(begin),
                                      static_cast<int64_t>(end))) {
          outputs[begin / static_cast<size_t>(grain)] = Table(out_schema);
          return Status::OK();
        }
        auto plan = make_plan(std::make_unique<TableScan>(
            input, kDefaultBatchSize, static_cast<int64_t>(begin),
            static_cast<int64_t>(end - begin)));
        VX_RETURN_NOT_OK(plan.status());
        VX_ASSIGN_OR_RETURN(Table out, Collect(plan->get()));
        outputs[begin / static_cast<size_t>(grain)] = std::move(out);
        return Status::OK();
      },
      threads));

  Table result(std::move(out_schema));
  for (const Table& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  return result;
}

Result<Table> ParallelCollect(std::shared_ptr<const Table> input,
                              const MorselPlanFactory& make_plan,
                              const ParallelOptions& options) {
  return ParallelCollect(std::move(input), make_plan, nullptr, options);
}

Result<Table> ParallelCollect(Table input, const MorselPlanFactory& make_plan,
                              const ParallelOptions& options) {
  return ParallelCollect(std::make_shared<const Table>(std::move(input)),
                         make_plan, nullptr, options);
}

namespace {

/// Morsel driver of the fused σ→π path (exec/vectorized.h): evaluates the
/// compiled pipeline's conjuncts into a selection-vector Batch per morsel
/// and materializes exactly one output table per morsel, concatenated in
/// morsel order. Morsel boundaries and merge order are identical to
/// ParallelCollect's, so the result is bit-identical to the interpreter
/// path at any thread count.
Result<Table> RunFusedPipeline(const std::shared_ptr<const Table>& input,
                               const FusedPipelinePlan& plan,
                               const MorselPruneFn& prune,
                               const ParallelOptions& options) {
  const int64_t rows = input->num_rows();
  const int64_t grain = options.ResolvedGrain();
  auto run_morsel = [&](int64_t begin, int64_t end) -> Result<Table> {
    Batch batch;
    batch.source = input.get();
    batch.begin = begin;
    batch.end = begin;  // pruned morsels stay an empty dense window
    if (prune == nullptr || begin >= end || !prune(begin, end)) {
      EvaluateConjuncts(*input, plan.conjuncts, begin, end, &batch);
    }
    return MaterializeFusedOutputs(plan, batch);
  };

  // Single morsel: inline, like ParallelCollect's fast path.
  if (rows <= grain) return run_morsel(0, rows);

  const auto num_morsels = static_cast<size_t>((rows + grain - 1) / grain);
  std::vector<Table> outputs(num_morsels);
  KernelStats* const kernel_stats = AmbientKernelStats();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(rows), static_cast<size_t>(grain),
      [&](size_t begin, size_t end) -> Status {
        ScopedKernelStats stats_scope(kernel_stats);
        VX_ASSIGN_OR_RETURN(Table out,
                            run_morsel(static_cast<int64_t>(begin),
                                       static_cast<int64_t>(end)));
        outputs[begin / static_cast<size_t>(grain)] = std::move(out);
        return Status::OK();
      },
      options.ResolvedThreads()));
  Table result(plan.schema);
  for (const Table& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  return result;
}

/// The identity projection (π = *) for the fused filter: every input
/// column passed through as a column ref.
FusedPipelinePlan IdentityPlan(const Table& input,
                               std::vector<ColumnPredicate> conjuncts) {
  FusedPipelinePlan plan;
  plan.conjuncts = std::move(conjuncts);
  plan.schema = input.schema();
  for (int c = 0; c < input.num_columns(); ++c) {
    FusedPipelinePlan::Output out;
    out.name = input.schema().field(c).name;
    out.source_column = c;
    out.type = input.schema().field(c).type;
    plan.outputs.push_back(std::move(out));
  }
  return plan;
}

}  // namespace

Result<Table> ParallelFilter(std::shared_ptr<const Table> input,
                             const ExprPtr& predicate,
                             const ParallelOptions& options) {
  MorselPruneFn prune = MakeZonePrune(
      input, ExtractPushdownPredicates(predicate, input->schema()));

  // Fused selection-vector path: a predicate that decomposes *completely*
  // into pushable conjuncts evaluates conjunct-at-a-time into a selection
  // vector (encoded-aware first pass, tight typed refinement passes) and
  // gathers survivors once — no mask column, no per-operator tables.
  if (VectorizedEnabled() && input->num_columns() > 0) {
    PredicateConjuncts split =
        SplitPredicateConjuncts(predicate, input->schema());
    if (split.residual.empty() && !split.pushable.empty()) {
      return RunFusedPipeline(
          input, IdentityPlan(*input, std::move(split.pushable)), prune,
          options);
    }
  }

  // Encoded fast path (also the `vectorized=off` path for one conjunct): a
  // predicate that *is* one pushable comparison is evaluated straight on
  // the column representation (whole RLE runs / dictionary entries, see
  // SelectMatchingRows) instead of through the expression interpreter —
  // same rows, same order, no decode.
  if (const auto exact = ExactColumnPredicate(predicate, input->schema())) {
    const Column* col = input->ColumnByName(exact->column);
    VX_CHECK(col != nullptr);  // ExactColumnPredicate validated the schema
    const int64_t rows = input->num_rows();
    const int64_t grain = options.ResolvedGrain();
    const auto num_morsels =
        rows == 0 ? size_t{0}
                  : static_cast<size_t>((rows + grain - 1) / grain);
    std::vector<Table> outputs(num_morsels);
    KernelStats* const kernel_stats = AmbientKernelStats();
    VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
        0, static_cast<size_t>(rows), static_cast<size_t>(grain),
        [&](size_t begin, size_t end) -> Status {
          ScopedKernelStats stats_scope(kernel_stats);
          std::vector<int64_t> selected;
          if (prune == nullptr || !prune(static_cast<int64_t>(begin),
                                         static_cast<int64_t>(end))) {
            SelectMatchingRows(*col, exact->op, exact->literal,
                               static_cast<int64_t>(begin),
                               static_cast<int64_t>(end), &selected);
          }
          Table out = input->Take(selected);
          NoteMaterialized(out);
          NoteLegacyBatch();
          outputs[begin / static_cast<size_t>(grain)] = std::move(out);
          return Status::OK();
        },
        options.ResolvedThreads()));
    Table result(input->schema());
    for (const Table& out : outputs) {
      VX_RETURN_NOT_OK(result.Append(out));
    }
    return result;
  }

  return ParallelCollect(
      std::move(input),
      [&predicate](OperatorPtr source) -> Result<OperatorPtr> {
        return OperatorPtr(
            std::make_unique<FilterOp>(std::move(source), predicate));
      },
      prune, options);
}

Result<Table> ParallelProject(std::shared_ptr<const Table> input,
                              const std::vector<ProjectionSpec>& outputs,
                              const ParallelOptions& options) {
  // Pure column-ref/literal projections slice (dense morsels never gather)
  // straight off the source — the interpreter would copy each column per
  // batch through Evaluate.
  if (VectorizedEnabled()) {
    if (auto plan = CompileFusedPipeline(*input, nullptr, outputs)) {
      return RunFusedPipeline(input, *plan, nullptr, options);
    }
  }
  return ParallelCollect(
      std::move(input),
      [&outputs](OperatorPtr source) -> Result<OperatorPtr> {
        return OperatorPtr(
            std::make_unique<ProjectOp>(std::move(source), outputs));
      },
      options);
}

Result<Table> ParallelFilterProject(std::shared_ptr<const Table> input,
                                    const ExprPtr& predicate,
                                    const std::vector<ProjectionSpec>& outputs,
                                    const ParallelOptions& options) {
  MorselPruneFn prune = MakeZonePrune(
      input, ExtractPushdownPredicates(predicate, input->schema()));
  // The tentpole shape: σ→π fused over selection vectors, one
  // materialization per morsel at the pipeline's end instead of a scan
  // slice + mask + filter output + projection output.
  if (VectorizedEnabled()) {
    if (auto plan = CompileFusedPipeline(*input, predicate, outputs)) {
      return RunFusedPipeline(input, *plan, prune, options);
    }
  }
  return ParallelCollect(
      std::move(input),
      [&predicate, &outputs](OperatorPtr source) -> Result<OperatorPtr> {
        auto filtered =
            std::make_unique<FilterOp>(std::move(source), predicate);
        return OperatorPtr(
            std::make_unique<ProjectOp>(std::move(filtered), outputs));
      },
      prune, options);
}

namespace {

/// Ceiling on the number of independent build-side hash partitions.
constexpr int kMaxJoinPartitions = 64;

/// Bytes one build key occupies in a partition's index: the scattered
/// (hash, row) pair plus the amortized node/bucket overhead of the
/// per-partition chain map.
constexpr int64_t kJoinBuildBytesPerKey = 48;

/// Partition count for a build side of `rows`: radix-partitioned so each
/// partition's index stays within one cache budget (common/cache_sizing.h)
/// while it is built, clamped to [1, 64] so tiny builds stop paying 64-way
/// scatter/assemble overhead. Partitioning stays hash-based and the count
/// depends only on the row count — per-hash chains are assembled in
/// chunk-then-row order either way, so match order (and results) are
/// identical at any thread count *and* any partition count.
size_t JoinPartitionsFor(int64_t rows) {
  return static_cast<size_t>(CacheSizedPartitionCount(
      rows, kJoinBuildBytesPerKey, kMaxJoinPartitions));
}

struct JoinBuildIndex {
  // partition -> hash -> build row indices (ascending, like the serial op).
  // order-insensitive: probed by key only; the comment above this struct
  // proves match order is identical at any thread/partition count.
  std::vector<std::unordered_map<uint64_t, std::vector<int64_t>>> partitions;
};

}  // namespace

Result<Table> ParallelHashJoin(const Table& probe, const Table& build,
                               const std::vector<std::string>& probe_keys,
                               const std::vector<std::string>& build_keys,
                               JoinType type, const ParallelOptions& options) {
  WallTimer timer;
  VX_ASSIGN_OR_RETURN(
      Schema schema, HashJoinOutputSchema(probe.schema(), build.schema(),
                                          probe_keys, build_keys, type));
  std::vector<int> probe_cols;
  for (const auto& k : probe_keys) {
    VX_ASSIGN_OR_RETURN(int idx, probe.ColumnIndex(k));
    probe_cols.push_back(idx);
  }
  std::vector<int> build_cols;
  for (const auto& k : build_keys) {
    VX_ASSIGN_OR_RETURN(int idx, build.ColumnIndex(k));
    build_cols.push_back(idx);
  }

  const int threads = options.ResolvedThreads();
  const int64_t grain = options.ResolvedGrain();

  // ---- Build: scatter (hash, row) into per-chunk partition buckets, then
  // assemble each partition from the chunks in row order. ----------------
  const int64_t build_rows = build.num_rows();
  const size_t partitions = JoinPartitionsFor(build_rows);
  const size_t build_chunks =
      build_rows == 0 ? 0
                      : static_cast<size_t>((build_rows + grain - 1) / grain);
  std::vector<std::vector<std::vector<std::pair<uint64_t, int64_t>>>> scatter(
      build_chunks);
  // Captured outside the fan-out: the knob and collector are thread-local
  // on the submitting thread, not on pool workers.
  const bool vectorized = VectorizedEnabled();
  KernelStats* const kernel_stats = AmbientKernelStats();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(build_rows), static_cast<size_t>(grain),
      [&](size_t begin, size_t end) {
        ScopedKernelStats stats_scope(kernel_stats);
        auto& buckets = scatter[begin / static_cast<size_t>(grain)];
        buckets.resize(partitions);
        std::vector<uint64_t> hashes;
        if (vectorized) {
          BatchJoinKeyHash(build, build_cols, static_cast<int64_t>(begin),
                           static_cast<int64_t>(end), &hashes);
        }
        for (auto i = static_cast<int64_t>(begin);
             i < static_cast<int64_t>(end); ++i) {
          if (JoinKeyHasNull(build, build_cols, i)) continue;
          const uint64_t h =
              vectorized ? hashes[static_cast<size_t>(
                               i - static_cast<int64_t>(begin))]
                         : JoinKeyHash(build, build_cols, i);
          buckets[h % partitions].emplace_back(h, i);
        }
        return Status::OK();
      },
      threads));

  JoinBuildIndex index;
  index.partitions.resize(partitions);
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, partitions, 1,
      [&](size_t begin, size_t end) {
        for (size_t p = begin; p < end; ++p) {
          auto& partition = index.partitions[p];
          for (const auto& buckets : scatter) {
            if (buckets.empty()) continue;
            for (const auto& [h, row] : buckets[p]) {
              partition[h].push_back(row);
            }
          }
        }
        return Status::OK();
      },
      threads));

  // ---- Probe: morsel-parallel, one output table per morsel, concatenated
  // in morsel order (= serial probe-row order). --------------------------
  const int64_t probe_rows = probe.num_rows();
  const size_t probe_chunks =
      probe_rows == 0 ? 0
                      : static_cast<size_t>((probe_rows + grain - 1) / grain);
  std::vector<Table> outputs(probe_chunks);
  const bool emit_build = type == JoinType::kInner || type == JoinType::kLeft;
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(probe_rows), static_cast<size_t>(grain),
      [&](size_t begin, size_t end) -> Status {
        ScopedKernelStats stats_scope(kernel_stats);
        std::vector<int64_t> probe_idx;
        std::vector<int64_t> build_idx;
        std::vector<uint64_t> hashes;
        if (vectorized) {
          BatchJoinKeyHash(probe, probe_cols, static_cast<int64_t>(begin),
                           static_cast<int64_t>(end), &hashes);
        }
        for (auto i = static_cast<int64_t>(begin);
             i < static_cast<int64_t>(end); ++i) {
          bool matched = false;
          if (!JoinKeyHasNull(probe, probe_cols, i)) {
            const uint64_t h =
                vectorized ? hashes[static_cast<size_t>(
                                 i - static_cast<int64_t>(begin))]
                           : JoinKeyHash(probe, probe_cols, i);
            const auto& partition = index.partitions[h % partitions];
            auto it = partition.find(h);
            if (it != partition.end()) {
              for (int64_t bi : it->second) {
                if (JoinKeysEqual(probe, probe_cols, i, build, build_cols,
                                  bi)) {
                  matched = true;
                  if (emit_build) {
                    probe_idx.push_back(i);
                    build_idx.push_back(bi);
                  } else {
                    break;  // semi/anti only need existence
                  }
                }
              }
            }
          }
          switch (type) {
            case JoinType::kLeft:
              if (!matched) {
                probe_idx.push_back(i);
                build_idx.push_back(-1);
              }
              break;
            case JoinType::kSemi:
              if (matched) probe_idx.push_back(i);
              break;
            case JoinType::kAnti:
              if (!matched) probe_idx.push_back(i);
              break;
            case JoinType::kInner:
              break;
          }
        }

        std::vector<Column> columns;
        columns.reserve(static_cast<size_t>(schema.num_fields()));
        {
          Table probe_side = probe.Take(probe_idx);
          for (int c = 0; c < probe_side.num_columns(); ++c) {
            columns.push_back(std::move(*probe_side.mutable_column(c)));
          }
        }
        if (emit_build) {
          for (int c = 0; c < build.num_columns(); ++c) {
            columns.push_back(JoinTakeWithNulls(build.column(c), build_idx));
          }
        }
        VX_ASSIGN_OR_RETURN(Table out,
                            Table::Make(schema, std::move(columns)));
        outputs[begin / static_cast<size_t>(grain)] = std::move(out);
        return Status::OK();
      },
      threads));

  Table result(schema);
  for (const Table& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  // Probe-row-major output: the probe side's declared order survives the
  // join (its columns keep their positions), whatever the join type.
  if (!probe.sort_order().empty()) result.SetSortOrder(probe.sort_order());
  if (JoinPathStats* stats = AmbientJoinStats()) {
    ++stats->hash_joins;
    stats->hash_rows += result.num_rows();
    stats->hash_seconds += timer.ElapsedSeconds();
  }
  return result;
}

ParallelHashJoinOp::ParallelHashJoinOp(OperatorPtr probe, OperatorPtr build,
                                       std::vector<std::string> probe_keys,
                                       std::vector<std::string> build_keys,
                                       JoinType type, ParallelOptions options)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      type_(type),
      options_(options) {
  auto schema =
      HashJoinOutputSchema(probe_->output_schema(), build_->output_schema(),
                           probe_keys_, build_keys_, type_);
  if (!schema.ok()) {
    init_status_ = schema.status();
    return;
  }
  schema_ = *std::move(schema);
}

std::string ParallelHashJoinOp::label() const {
  std::string out = std::string("HashJoin[") + JoinTypeName(type_) + "](";
  for (size_t i = 0; i < probe_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += probe_keys_[i] + " = " + build_keys_[i];
  }
  return out + ") [morsel]";
}

Result<std::optional<Table>> ParallelHashJoinOp::Next() {
  VX_RETURN_NOT_OK(init_status_);
  if (done_) return std::optional<Table>{};
  done_ = true;
  VX_ASSIGN_OR_RETURN(auto probe_table, CollectShared(probe_.get()));
  VX_ASSIGN_OR_RETURN(auto build_table, CollectShared(build_.get()));
  VX_ASSIGN_OR_RETURN(Table out,
                      ParallelHashJoin(*probe_table, *build_table, probe_keys_,
                                       build_keys_, type_, options_));
  return std::optional<Table>(std::move(out));
}

ParallelAggregateOp::ParallelAggregateOp(OperatorPtr input,
                                         std::vector<std::string> group_by,
                                         std::vector<AggSpec> aggs,
                                         ParallelOptions options)
    : input_(std::move(input)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      options_(options) {
  auto schema =
      AggregateOutputSchema(input_->output_schema(), group_by_, aggs_);
  if (!schema.ok()) {
    init_status_ = schema.status();
    return;
  }
  schema_ = *std::move(schema);
}

std::string ParallelAggregateOp::label() const {
  std::string out = "HashAggregate(by: ";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_by_[i];
  }
  out += "; ";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string(AggOpName(aggs_[i].op));
    if (aggs_[i].op != AggOp::kCountStar) out += "(" + aggs_[i].input + ")";
  }
  return out + ") [morsel]";
}

Result<std::optional<Table>> ParallelAggregateOp::Next() {
  VX_RETURN_NOT_OK(init_status_);
  if (done_) return std::optional<Table>{};
  done_ = true;
  VX_ASSIGN_OR_RETURN(auto in, CollectShared(input_.get()));
  VX_ASSIGN_OR_RETURN(Table out,
                      ParallelHashAggregate(*in, group_by_, aggs_, options_));
  return std::optional<Table>(std::move(out));
}

}  // namespace vertexica
