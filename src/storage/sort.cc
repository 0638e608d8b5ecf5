#include "storage/sort.h"

#include <algorithm>
#include <numeric>

namespace vertexica {

std::vector<int64_t> SortIndices(const Table& table,
                                 const std::vector<SortKey>& keys) {
  std::vector<int64_t> indices(static_cast<size_t>(table.num_rows()));
  std::iota(indices.begin(), indices.end(), 0);

  // Fast path: single ascending int64 key with no nulls (the vertex-batching
  // case: sort partition on vertex id).
  if (keys.size() == 1 && keys[0].ascending &&
      table.column(keys[0].column).type() == DataType::kInt64 &&
      table.column(keys[0].column).null_count() == 0) {
    // RLE fast path: stable-sort the runs and expand each run's row range.
    // Equal-valued runs keep their original order and every run expands in
    // ascending row order, which is exactly the stable row sort — without
    // decoding the key column. O(runs log runs + n) instead of O(n log n).
    if (const auto* runs = table.column(keys[0].column).rle_runs()) {
      struct RunRange {
        int64_t value;
        int64_t start;
        int64_t length;
      };
      std::vector<RunRange> ranges;
      ranges.reserve(runs->size());
      int64_t start = 0;
      for (const RleRun& run : *runs) {
        ranges.push_back(RunRange{run.value, start, run.length});
        start += run.length;
      }
      std::stable_sort(ranges.begin(), ranges.end(),
                       [](const RunRange& a, const RunRange& b) {
                         return a.value < b.value;
                       });
      size_t out = 0;
      for (const RunRange& r : ranges) {
        for (int64_t i = 0; i < r.length; ++i) {
          indices[out++] = r.start + i;
        }
      }
      return indices;
    }
    const auto& v = table.column(keys[0].column).ints();
    std::stable_sort(indices.begin(), indices.end(),
                     [&v](int64_t a, int64_t b) {
                       return v[static_cast<size_t>(a)] <
                              v[static_cast<size_t>(b)];
                     });
    return indices;
  }

  std::stable_sort(indices.begin(), indices.end(),
                   [&table, &keys](int64_t a, int64_t b) {
                     for (const SortKey& k : keys) {
                       const Column& col = table.column(k.column);
                       int cmp = col.CompareRows(a, col, b);
                       if (!k.ascending) cmp = -cmp;
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return indices;
}

Table SortTable(const Table& table, const std::vector<SortKey>& keys) {
  Table out = table.Take(SortIndices(table, keys));
  out.SetSortOrder(keys);  // the one producer that guarantees it by doing it
  return out;
}

Table MergeSortedTables(const std::vector<const Table*>& inputs,
                        int key_column) {
  VX_CHECK(!inputs.empty());
  VX_CHECK(inputs[0]->column(key_column).type() == DataType::kInt64);
  const SortKey key{key_column, true};
  // Inputs without the declaration are sorted into owned storage; reserve
  // up front so the pointers into it stay valid.
  std::vector<Table> sorted;
  sorted.reserve(inputs.size());
  std::vector<const Table*> tables;
  tables.reserve(inputs.size());
  for (const Table* t : inputs) {
    VX_CHECK(t->schema().EqualTypes(inputs[0]->schema()));
    const auto& order = t->sort_order();
    const bool declared = !order.empty() && order[0].column == key_column &&
                          order[0].ascending;
    if (declared || t->num_rows() <= 1) {
      tables.push_back(t);
    } else {
      sorted.push_back(SortTable(*t, {key}));
      tables.push_back(&sorted.back());
    }
  }

  // Merge keys: (valid, value) so NULLs order first, as in CompareRows.
  using Key = std::pair<int, int64_t>;
  std::vector<const Column*> key_cols;
  std::vector<const int64_t*> key_vals;
  for (const Table* t : tables) {
    key_cols.push_back(&t->column(key_column));
    key_vals.push_back(key_cols.back()->ints().data());
  }
  const auto key_at = [&key_cols, &key_vals](size_t s, int64_t r) -> Key {
    if (key_cols[s]->IsNull(r)) return {0, 0};
    return {1, key_vals[s][r]};
  };

  // The merge as a list of row ranges: each step takes the input holding
  // the least (key, input index) and extends its run while it stays below
  // the least (key, input index) of the others.
  struct Range {
    size_t input;
    int64_t begin;
    int64_t end;
  };
  std::vector<Range> ranges;
  std::vector<int64_t> cursor(tables.size(), 0);
  for (;;) {
    size_t best = tables.size();
    Key best_key;
    size_t bound = tables.size();
    Key bound_key;
    for (size_t s = 0; s < tables.size(); ++s) {
      if (cursor[s] >= tables[s]->num_rows()) continue;
      const Key k = key_at(s, cursor[s]);
      if (best == tables.size() || k < best_key) {
        bound = best;
        bound_key = best_key;
        best = s;
        best_key = k;
      } else if (bound == tables.size() || k < bound_key) {
        bound = s;
        bound_key = k;
      }
    }
    if (best == tables.size()) break;
    const int64_t n = tables[best]->num_rows();
    int64_t r = cursor[best] + 1;
    if (bound == tables.size()) {
      r = n;
    } else {
      while (r < n) {
        const Key k = key_at(best, r);
        if (bound_key < k || (k == bound_key && bound < best)) break;
        ++r;
      }
    }
    ranges.push_back({best, cursor[best], r});
    cursor[best] = r;
  }

  int64_t total = 0;
  for (const Table* t : tables) total += t->num_rows();
  const Schema& schema = inputs[0]->schema();
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(schema.num_fields()));
  for (int c = 0; c < schema.num_fields(); ++c) {
    Column col(schema.field(c).type);
    col.Reserve(total);
    for (const Range& range : ranges) {
      col.AppendColumnRange(tables[range.input]->column(c), range.begin,
                            range.end - range.begin);
    }
    columns.push_back(std::move(col));
  }
  auto made = Table::Make(schema, std::move(columns));
  VX_CHECK(made.ok()) << made.status().ToString();
  Table out = std::move(made).MoveValueUnsafe();
  out.SetSortOrder({key});
  return out;
}

}  // namespace vertexica
