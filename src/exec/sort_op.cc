#include "exec/sort_op.h"

#include "exec/scan.h"
#include "storage/sort.h"

namespace vertexica {

SortOp::SortOp(OperatorPtr input, std::vector<OrderBySpec> keys)
    : input_(std::move(input)), keys_(std::move(keys)) {}

Result<std::optional<Table>> SortOp::Next() {
  if (done_) return std::optional<Table>{};
  done_ = true;
  VX_ASSIGN_OR_RETURN(auto all, CollectShared(input_.get()));
  std::vector<SortKey> resolved;
  resolved.reserve(keys_.size());
  for (const auto& k : keys_) {
    VX_ASSIGN_OR_RETURN(int idx, all->ColumnIndex(k.column));
    resolved.push_back(SortKey{idx, k.ascending});
  }
  return std::optional<Table>(SortTable(*all, resolved));
}

}  // namespace vertexica
