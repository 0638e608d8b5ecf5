/// \file sort.h
/// \brief Multi-key table sorting.
///
/// Vertex batching (§2.3) sorts every hash partition of the union table on
/// vertex id so a worker sees each vertex's tuples contiguously; this module
/// provides that primitive for arbitrary key lists.

#ifndef VERTEXICA_STORAGE_SORT_H_
#define VERTEXICA_STORAGE_SORT_H_

#include <vector>

#include "storage/table.h"

namespace vertexica {

// SortKey (column index + direction) lives in storage/table.h, next to the
// Table sort-order property it also describes.

/// \brief Returns the row permutation that sorts `table` by `keys`
/// (stable; NULLs first within ascending order).
std::vector<int64_t> SortIndices(const Table& table,
                                 const std::vector<SortKey>& keys);

/// \brief Returns a new table sorted by `keys`, with its sort-order
/// property (Table::sort_order) declared accordingly.
Table SortTable(const Table& table, const std::vector<SortKey>& keys);

/// \brief Stable merge of tables sharing one schema on the INT64 column
/// `key_column`, ascending with NULLs first: rows with equal keys come out
/// in input-table order, then in row order — exactly
/// `SortTable(concatenation of inputs, {{key_column, true}})`, without
/// the concatenation or the sort. Inputs whose declared order starts with
/// that key are trusted to be sorted; any other input is stable-sorted
/// first, never assumed sorted. The output declares the key order.
Table MergeSortedTables(const std::vector<const Table*>& inputs,
                        int key_column);

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_SORT_H_
