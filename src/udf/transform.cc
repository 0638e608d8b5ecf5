#include "udf/transform.h"

#include <algorithm>

#include "exec/parallel.h"
#include "storage/partition.h"
#include "storage/sort.h"

namespace vertexica {

TransformParallelism ResolveTransformParallelism(const TransformOptions& opts) {
  TransformParallelism out;
  out.partitions = opts.num_partitions > 0 ? opts.num_partitions
                                           : kDefaultTransformPartitions;
  out.workers = opts.num_workers > 0 ? opts.num_workers : ExecThreads();
  // Enforce the documented partitions >= workers invariant.
  out.workers = std::max(1, std::min(out.workers, out.partitions));
  return out;
}

Result<Table> RunTransform(const TransformPartitionSource& make_partition,
                           const TransformUdfFactory& factory,
                           const TransformOptions& options) {
  const TransformParallelism par = ResolveTransformParallelism(options);

  // Discover the output schema from a throwaway instance.
  const Schema out_schema = factory()->output_schema();

  // One output slot per partition so emission order is deterministic
  // regardless of scheduling.
  std::vector<Table> outputs(static_cast<size_t>(par.partitions),
                             Table(out_schema));

  // Propagate the caller's ambient thread budget into the pool tasks so a
  // UDF body that runs exec kernels keeps honouring RunRequest::threads.
  const int ambient_threads = ExecThreads();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, outputs.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        ScopedExecThreads scoped(ambient_threads);
        for (size_t p = begin; p < end; ++p) {
          VX_ASSIGN_OR_RETURN(Table partition,
                              make_partition(static_cast<int>(p)));
          if (partition.num_rows() == 0) continue;
          auto udf = factory();
          Table& out = outputs[p];
          VX_RETURN_NOT_OK(udf->ProcessPartition(
              partition, [&out](Table batch) { return out.Append(batch); }));
        }
        return Status::OK();
      },
      par.workers));

  Table result(out_schema);
  for (auto& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  return result;
}

Result<Table> ApplyTransform(const Table& input, int partition_column,
                             const TransformUdfFactory& factory,
                             const TransformOptions& options) {
  if (partition_column < 0 || partition_column >= input.num_columns()) {
    return Status::InvalidArgument("ApplyTransform: bad partition column");
  }
  const TransformParallelism par = ResolveTransformParallelism(options);
  std::vector<Table> parts =
      HashPartition(input, partition_column, par.partitions);

  // Pre-sort partitions: the §2.3 "each partition is sorted on vertex id"
  // step.
  std::vector<SortKey> keys;
  for (int c : options.sort_columns) keys.push_back(SortKey{c, true});
  return RunTransform(
      [&](int p) -> Result<Table> {
        Table& part = parts[static_cast<size_t>(p)];
        return keys.empty() ? std::move(part) : SortTable(part, keys);
      },
      factory, options);
}

}  // namespace vertexica
