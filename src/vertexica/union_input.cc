#include "vertexica/union_input.h"

#include <string>

#include "common/string_util.h"
#include "exec/parallel.h"
#include "storage/partition.h"
#include "storage/sort.h"
#include "vertexica/graph_tables.h"

namespace vertexica {

namespace {

/// Common-schema projection of one section: (id, kind, other, halted,
/// p0..p{arity-1}) — §2.3 "Table Unions" renames the three tables to one
/// schema. Returns the projection and the source's id column name.
std::vector<ProjectionSpec> SectionProjection(UnionSectionKind kind,
                                              const VertexProgram& program,
                                              std::string* id_column) {
  const int va = program.value_arity();
  const int ma = program.message_arity();
  const int arity = PayloadArity(program);
  std::vector<ProjectionSpec> proj;
  switch (kind) {
    case UnionSectionKind::kVertex:
      *id_column = "id";
      proj = {{"id", Col("id")},
              {"kind", Lit(static_cast<int64_t>(kVertexTuple))},
              {"other", Lit(int64_t{-1})},
              {"halted", Col("halted")}};
      for (int i = 0; i < arity; ++i) {
        proj.push_back({StringFormat("p%d", i),
                        i < va ? Col(StringFormat("v%d", i)) : Lit(0.0)});
      }
      break;
    case UnionSectionKind::kEdge:
      *id_column = "src";
      proj = {{"id", Col("src")},
              {"kind", Lit(static_cast<int64_t>(kEdgeTuple))},
              {"other", Col("dst")},
              {"halted", Lit(false)}};
      for (int i = 0; i < arity; ++i) {
        proj.push_back({StringFormat("p%d", i),
                        i == 0 ? Col("weight") : Lit(0.0)});
      }
      break;
    case UnionSectionKind::kMessage:
      *id_column = "dst";
      proj = {{"id", Col("dst")},
              {"kind", Lit(static_cast<int64_t>(kMessageTuple))},
              {"other", Col("src")},
              {"halted", Lit(false)}};
      for (int i = 0; i < arity; ++i) {
        proj.push_back({StringFormat("p%d", i),
                        i < ma ? Col(StringFormat("m%d", i)) : Lit(0.0)});
      }
      break;
  }
  return proj;
}

/// `t` re-declared ascending on `column` — for gathers that keep a sorted
/// table sorted but conservatively drop the declaration.
Result<std::shared_ptr<const Table>> DeclaredAscending(
    Table t, const std::string& column) {
  VX_ASSIGN_OR_RETURN(int c, t.ColumnIndex(column));
  t.SetSortOrder({{c, true}});
  return std::make_shared<const Table>(std::move(t));
}

}  // namespace

Result<UnionSection> BuildUnionSection(
    UnionSectionKind kind, const std::shared_ptr<const Table>& source,
    const VertexProgram& program, int num_partitions) {
  std::string id_column;
  const std::vector<ProjectionSpec> proj =
      SectionProjection(kind, program, &id_column);
  VX_ASSIGN_OR_RETURN(Table projected, ParallelProject(source, proj));
  VX_ASSIGN_OR_RETURN(int id_c, source->ColumnIndex(id_column));
  if (source->OrderCoversKeys({id_c})) projected.SetSortOrder({{0, true}});
  // A shard per batching partition is the batching scatter itself
  // (ShardOfPartition is the identity), and ShardScatter carries the
  // declared order onto every part.
  ShardingSpec spec;
  spec.num_shards = num_partitions;
  spec.base_partitions = num_partitions;
  return ShardScatter(projected, 0, spec);
}

int64_t UnionInput::num_rows() const {
  int64_t rows = 0;
  for (const Table& t : vertex) rows += t.num_rows();
  for (const Table& t : *edge) rows += t.num_rows();
  for (const Table& t : message) rows += t.num_rows();
  return rows;
}

Table UnionInput::Partition(int p) const {
  const auto sp = static_cast<size_t>(p);
  return MergeSortedTables({&vertex[sp], &(*edge)[sp], &message[sp]},
                           /*key_column=*/0);
}

Result<UnionInput> BuildUnionInput(
    const std::shared_ptr<const Table>& vertex,
    std::shared_ptr<const UnionSection> edge_section,
    const std::shared_ptr<const Table>& message, const VertexProgram& program,
    int num_partitions) {
  if (edge_section == nullptr ||
      static_cast<int>(edge_section->size()) != num_partitions) {
    return Status::InvalidArgument(
        "BuildUnionInput: edge section partition count mismatch");
  }
  UnionInput input;
  VX_ASSIGN_OR_RETURN(input.vertex,
                      BuildUnionSection(UnionSectionKind::kVertex, vertex,
                                        program, num_partitions));
  input.edge = std::move(edge_section);
  VX_ASSIGN_OR_RETURN(input.message,
                      BuildUnionSection(UnionSectionKind::kMessage, message,
                                        program, num_partitions));
  return input;
}

Result<UnionInput> BuildUnionInputFrontier(
    const std::shared_ptr<const Table>& vertex,
    const std::shared_ptr<const Table>& edge,
    const std::shared_ptr<const Table>& message, const Bitvector& frontier,
    const CsrIndex& csr, const VertexProgram& program, int num_partitions) {
  // Both gathers keep id order: the active rows ascend over an id-sorted
  // vertex table (a frontier precondition), and the edge rows are the CSR
  // slices of those ids in that order, each slice one src value.
  const std::vector<int64_t> active_rows = frontier.SetIndices();
  VX_ASSIGN_OR_RETURN(auto active_vertex,
                      DeclaredAscending(vertex->Take(active_rows), "id"));
  const auto& ids = vertex->ColumnByName("id")->ints();
  std::vector<int64_t> edge_rows;
  for (int64_t r : active_rows) {
    const CsrIndex::Slice s = csr.NeighborSlice(ids[static_cast<size_t>(r)]);
    for (int64_t e = s.begin; e < s.end; ++e) edge_rows.push_back(e);
  }
  VX_ASSIGN_OR_RETURN(auto active_edge,
                      DeclaredAscending(edge->Take(edge_rows), "src"));
  VX_ASSIGN_OR_RETURN(UnionSection edge_section,
                      BuildUnionSection(UnionSectionKind::kEdge, active_edge,
                                        program, num_partitions));
  return BuildUnionInput(
      active_vertex,
      std::make_shared<const UnionSection>(std::move(edge_section)), message,
      program, num_partitions);
}

}  // namespace vertexica
