/// \file union_input.h
/// \brief The §2.3 "table union" worker input, built partition by
/// partition instead of as one table.
///
/// The union of the vertex, edge and message tables in the common schema
/// (graph_tables.h) is hash-partitioned on vertex id and each partition is
/// sorted on id ("vertex batching"). Building that as one union table and
/// then partitioning and sorting it re-does, every superstep, work whose
/// inputs barely change: the edge section is identical every superstep,
/// and the stored tables are already sorted by id, src and dst.
///
/// So each section is projected and scattered over the batching
/// partitions on its own — the edge section once per run, the small vertex
/// and message sections per superstep — and each partition's worker input
/// is made inside that partition's worker task by a linear merge of the
/// three section parts on id, vertex < edge < message at equal ids. That
/// merge is exactly the stable sort of the partition's rows in union
/// order, so the Worker sees byte-identical input (MergeSortedTables,
/// storage/sort.h). A section part whose id order is not declared is
/// stable-sorted by the merge, never assumed sorted.

#ifndef VERTEXICA_VERTEXICA_UNION_INPUT_H_
#define VERTEXICA_VERTEXICA_UNION_INPUT_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "storage/bitvector.h"
#include "storage/csr_index.h"
#include "storage/table.h"
#include "vertexica/vertex_program.h"

namespace vertexica {

/// \brief One section of the union input in the common schema, scattered
/// on id: one table per vertex-batching partition, in partition order.
using UnionSection = std::vector<Table>;

/// \brief Which stored table a section is projected from.
enum class UnionSectionKind { kVertex, kEdge, kMessage };

/// \brief Projects `source` — a vertex, edge or message table — onto the
/// common schema (id = vertex id / edge src / message dst) and scatters it
/// on id over `num_partitions` partitions (PartitionOf, the vertex
/// batching hash). The scatter is stable; when `source` declares its id
/// column ascending, every part declares the projected id ascending.
Result<UnionSection> BuildUnionSection(
    UnionSectionKind kind, const std::shared_ptr<const Table>& source,
    const VertexProgram& program, int num_partitions);

/// \brief One superstep's (or one shard's) union worker input, by
/// partition.
struct UnionInput {
  UnionSection vertex;
  /// Shared: dense supersteps reuse the section built once per run.
  std::shared_ptr<const UnionSection> edge;
  UnionSection message;

  /// Rows over all sections and partitions (the worker input size).
  int64_t num_rows() const;

  /// \brief Partition `p` as the Worker sees it: the stable merge on id of
  /// the three section parts, vertex < edge < message at equal ids.
  Table Partition(int p) const;
};

/// \brief Dense input: the vertex and message sections around a prebuilt
/// edge section (which must have `num_partitions` parts).
Result<UnionInput> BuildUnionInput(
    const std::shared_ptr<const Table>& vertex,
    std::shared_ptr<const UnionSection> edge_section,
    const std::shared_ptr<const Table>& message, const VertexProgram& program,
    int num_partitions);

/// \brief Frontier input (exec/frontier.h): the vertex section restricted
/// to the `frontier` rows of the id-sorted `vertex` table, the edge section
/// to their CSR slices of `edge` (`csr` indexes its src column), and the
/// whole message section. Gathers run in ascending row order, so each
/// surviving vertex's tuple stream is exactly the dense input's; inactive
/// vertices produce no worker output, so dropping them is unobservable.
Result<UnionInput> BuildUnionInputFrontier(
    const std::shared_ptr<const Table>& vertex,
    const std::shared_ptr<const Table>& edge,
    const std::shared_ptr<const Table>& message, const Bitvector& frontier,
    const CsrIndex& csr, const VertexProgram& program, int num_partitions);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_UNION_INPUT_H_
