#include "exec/distinct.h"

#include "common/hash.h"
#include "exec/scan.h"

namespace vertexica {

namespace {
uint64_t HashFullRow(const Table& t, int64_t row) {
  uint64_t h = 0x44697374ULL;  // "Dist"
  for (int c = 0; c < t.num_columns(); ++c) {
    h = HashCombine(h, t.column(c).HashRow(row));
  }
  return h;
}

bool RowsEqual(const Table& t, int64_t a, int64_t b) {
  for (int c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    if (col.IsNull(a) != col.IsNull(b)) return false;
    if (!col.IsNull(a) && col.CompareRows(a, col, b) != 0) return false;
  }
  return true;
}
}  // namespace

Result<std::optional<Table>> DistinctOp::Next() {
  if (done_) return std::optional<Table>{};
  done_ = true;
  VX_ASSIGN_OR_RETURN(auto all_table, CollectShared(input_.get()));
  const Table& all = *all_table;
  // order-insensitive: keyed lookups only; kept rows come out in input-row
  // order, never in map-iteration order.
  std::unordered_map<uint64_t, std::vector<int64_t>> seen;
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < all.num_rows(); ++i) {
    auto& chain = seen[HashFullRow(all, i)];
    bool dup = false;
    for (int64_t j : chain) {
      if (RowsEqual(all, i, j)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      chain.push_back(i);
      keep.push_back(i);
    }
  }
  return std::optional<Table>(all.Take(keep));
}

}  // namespace vertexica
