/// \file column.h
/// \brief A typed, nullable column of values — the engine's unit of storage.
///
/// Vertexica sits on a column-oriented database (the paper uses Vertica);
/// this column vector is the corresponding storage primitive here. Hot
/// paths access the typed vectors directly (`ints()`, `doubles()`), while
/// generic code goes through `GetValue`/`AppendValue`.
///
/// A column may store its values *encoded* — run-length for INT64/BOOL,
/// dictionary for STRING — as an immutable `EncodedSegment` shared by all
/// copies (see storage/encoding.h). Readers see identical values either
/// way: element access and the typed-vector views decode lazily, exactly
/// once per segment, behind a `std::call_once`; dictionary columns answer
/// `GetString`/`HashRow`/`CompareRows` straight from codes without ever
/// materializing the decoded vector. Mutation (appends, `mutable_*`)
/// transparently reverts the column to the plain representation first.

#ifndef VERTEXICA_STORAGE_COLUMN_H_
#define VERTEXICA_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/data_type.h"
#include "storage/encoding.h"
#include "storage/value.h"

namespace vertexica {

/// \brief Immutable encoded payload of a column, shared by all its copies.
///
/// The decoded view and the per-dictionary-entry hashes are caches filled
/// lazily at most once (`std::call_once`), so concurrent readers — the
/// morsel-parallel executor scans one table from many threads — are safe
/// without locking on the hot path.
struct EncodedSegment {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  int64_t length = 0;
  std::vector<RleRun> runs;        ///< kRle (BOOL runs hold 0/1)
  std::vector<int64_t> run_starts; ///< start row of runs[k] (kRle), for
                                   ///< binary-searching a row range
  DictEncoded dict;                ///< kDict

  /// \name Lazy caches
  /// @{
  mutable std::once_flag decode_once;
  mutable std::vector<int64_t> decoded_ints;
  mutable std::vector<uint8_t> decoded_bools;
  mutable std::vector<std::string> decoded_strings;
  mutable std::once_flag hash_once;
  mutable std::vector<uint64_t> dict_hashes;  ///< HashString per dict entry
  /// @}
};

/// \brief A single column: logical type + typed value vector + validity.
///
/// Validity is tracked lazily: while no NULL has been appended the validity
/// vector stays empty and all slots are valid, so fully-valid columns (the
/// common case for graph data) pay nothing. Validity always stays plain,
/// even for encoded columns.
class Column {
 public:
  explicit Column(DataType type = DataType::kInt64) : type_(type) {}

  /// \name Typed factories
  /// @{
  static Column FromInts(std::vector<int64_t> v);
  static Column FromDoubles(std::vector<double> v);
  static Column FromStrings(std::vector<std::string> v);
  static Column FromBools(std::vector<uint8_t> v);
  /// \brief Fully-valid INT64 column born RLE-encoded from the given runs
  /// (adjacent runs may share a value). Lets producers that already know
  /// the run structure — e.g. the partition scatter splitting an encoded
  /// key column — build encoded output without a decode/re-encode round
  /// trip.
  static Column FromRleRuns(std::vector<RleRun> runs);
  /// @}

  DataType type() const { return type_; }
  int64_t length() const { return length_; }
  int64_t null_count() const { return null_count_; }

  void Reserve(int64_t n);

  /// \name Append
  /// Appending to an encoded column first reverts it to plain (and drops
  /// the now-stale zone map and sorted-ascending flag).
  /// @{
  void AppendInt64(int64_t v) {
    VX_DCHECK(type_ == DataType::kInt64);
    if (MutationInvalidatesState()) PrepareMutation();
    ints_.push_back(v);
    NoteAppend();
  }
  void AppendDouble(double v) {
    VX_DCHECK(type_ == DataType::kDouble);
    if (MutationInvalidatesState()) PrepareMutation();
    doubles_.push_back(v);
    NoteAppend();
  }
  void AppendString(std::string v) {
    VX_DCHECK(type_ == DataType::kString);
    if (MutationInvalidatesState()) PrepareMutation();
    strings_.push_back(std::move(v));
    NoteAppend();
  }
  void AppendBool(bool v) {
    VX_DCHECK(type_ == DataType::kBool);
    if (MutationInvalidatesState()) PrepareMutation();
    bools_.push_back(v ? 1 : 0);
    NoteAppend();
  }
  void AppendNull();
  /// \brief Appends a Value; the value must match the column type or be null.
  void AppendValue(const Value& v);
  /// \brief Appends rows [0, other.length()) of `other` (same type).
  void AppendColumn(const Column& other);
  /// \brief Appends rows [offset, offset + count) of `other` (same type).
  void AppendColumnRange(const Column& other, int64_t offset, int64_t count);
  /// @}

  /// \name Element access
  /// @{
  bool IsNull(int64_t i) const {
    return !validity_.empty() && validity_[static_cast<size_t>(i)] == 0;
  }
  int64_t GetInt64(int64_t i) const {
    VX_DCHECK(type_ == DataType::kInt64);
    return (segment_ == nullptr ? ints_ : DecodedInts())[static_cast<size_t>(i)];
  }
  double GetDouble(int64_t i) const {
    VX_DCHECK(type_ == DataType::kDouble);
    return doubles_[static_cast<size_t>(i)];
  }
  /// Dictionary-encoded columns answer from the dictionary directly, with
  /// no per-row decode.
  const std::string& GetString(int64_t i) const {
    VX_DCHECK(type_ == DataType::kString);
    if (segment_ != nullptr && segment_->encoding == ColumnEncoding::kDict) {
      return segment_->dict.dictionary[static_cast<size_t>(
          segment_->dict.codes[static_cast<size_t>(i)])];
    }
    return (segment_ == nullptr ? strings_
                                : DecodedStrings())[static_cast<size_t>(i)];
  }
  bool GetBool(int64_t i) const {
    VX_DCHECK(type_ == DataType::kBool);
    return (segment_ == nullptr ? bools_
                                : DecodedBools())[static_cast<size_t>(i)] != 0;
  }
  /// \brief Numeric value widened to double (int64 or double columns).
  double GetNumeric(int64_t i) const {
    return type_ == DataType::kInt64 ? static_cast<double>(GetInt64(i))
                                     : GetDouble(i);
  }
  Value GetValue(int64_t i) const;
  /// @}

  /// \name Direct typed access for vectorized operators
  /// The const views of an encoded column decode lazily (cached in the
  /// shared segment); the `mutable_*` accessors revert to plain first.
  /// @{
  const std::vector<int64_t>& ints() const {
    return segment_ == nullptr ? ints_ : DecodedInts();
  }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const {
    return segment_ == nullptr ? strings_ : DecodedStrings();
  }
  const std::vector<uint8_t>& bools() const {
    return segment_ == nullptr ? bools_ : DecodedBools();
  }
  std::vector<int64_t>* mutable_ints() {
    PrepareMutation();
    return &ints_;
  }
  std::vector<double>* mutable_doubles() {
    PrepareMutation();
    return &doubles_;
  }
  std::vector<std::string>* mutable_strings() {
    PrepareMutation();
    return &strings_;
  }
  std::vector<uint8_t>* mutable_bools() {
    PrepareMutation();
    return &bools_;
  }
  /// @}

  /// \name Encoding state (storage/encoding.h)
  /// @{
  ColumnEncoding encoding() const {
    return segment_ == nullptr ? ColumnEncoding::kPlain : segment_->encoding;
  }
  bool is_encoded() const { return segment_ != nullptr; }

  /// \brief Switches to an encoded representation: RLE for INT64/BOOL,
  /// dictionary for STRING (DOUBLE columns always stay plain). Under kAuto
  /// the column is encoded only when the encoded footprint is smaller than
  /// the plain one; kForce encodes every eligible type; kOff is a no-op.
  /// Builds the zone map as a side effect (one pass, while the plain
  /// vectors are still hot; skipped when one is already cached). Returns
  /// true when the column is now encoded.
  /// Value-neutral: readers see bit-identical data either way.
  bool Encode(EncodingMode mode = EncodingMode::kAuto);

  /// \brief Reverts to the plain representation (keeps the zone map, which
  /// describes values, not their encoding).
  void Decode();

  /// \brief Computes (or recomputes) the per-zone min/max/null-count
  /// statistics for this column; any type. See storage/encoding.h.
  void BuildZoneMap();

  /// \brief The cached zone map; nullptr until BuildZoneMap()/Encode().
  const std::shared_ptr<const ZoneMapIndex>& zone_map() const {
    return zone_map_;
  }

  /// \brief The RLE runs when RLE-encoded, else nullptr.
  const std::vector<RleRun>* rle_runs() const {
    return segment_ != nullptr && segment_->encoding == ColumnEncoding::kRle
               ? &segment_->runs
               : nullptr;
  }
  /// \brief Start row of each RLE run (parallel to rle_runs()), else
  /// nullptr; lets range kernels binary-search their first run instead of
  /// walking the run list from row 0.
  const std::vector<int64_t>* rle_run_starts() const {
    return segment_ != nullptr && segment_->encoding == ColumnEncoding::kRle
               ? &segment_->run_starts
               : nullptr;
  }
  /// \brief The dictionary encoding when dictionary-encoded, else nullptr.
  const DictEncoded* dict() const {
    return segment_ != nullptr && segment_->encoding == ColumnEncoding::kDict
               ? &segment_->dict
               : nullptr;
  }

  /// \brief Bytes used by the validity bitmap (0 while fully valid).
  int64_t ValidityByteSize() const {
    return static_cast<int64_t>(validity_.size());
  }
  /// @}

  /// \name Sort-order property (order-aware execution)
  ///
  /// Declares that values are nondecreasing under the CompareRows total
  /// order (NULLs first, NaN last). Set by producers that guarantee it —
  /// Table::SetSortOrder marks its leading ascending key — and dropped on
  /// any mutation together with the zone map (PrepareMutation), so the
  /// flag can never go stale. Slices inherit it; gathers do not.
  /// @{
  bool sorted_ascending() const { return sorted_ascending_; }
  void set_sorted_ascending(bool sorted) { sorted_ascending_ = sorted; }
  /// @}

  /// \brief Gather: column of `indices.size()` rows taken at the indices.
  Column Take(const std::vector<int64_t>& indices) const;

  /// \brief Contiguous sub-column [offset, offset + count).
  Column Slice(int64_t offset, int64_t count) const;

  /// \brief Deep equality including null positions.
  bool Equals(const Column& other) const;

  /// \brief Hash of row `i` (for join/group keys). NULL hashes to a fixed
  /// distinguished value. Dictionary columns hash via a per-entry cache —
  /// the hash equals HashString of the decoded value, so encoded and plain
  /// key columns hash identically.
  uint64_t HashRow(int64_t i) const;

  /// \brief Three-way comparison of row `i` with row `j` of `other` (same
  /// type). NULLs sort first. DOUBLE uses a total order — NaN sorts after
  /// every number and compares equal to itself — so sorting is a strict
  /// weak order even with NaN present (which reaches tables via the
  /// documented GetAggregate undeclared-read contract).
  int CompareRows(int64_t i, const Column& other, int64_t j) const;

  /// \brief Deep structural audit of every claim this column makes (the
  /// VX_DCHECK tier; see docs/DEVELOPING.md). Verifies size/validity/
  /// null-count consistency, that the encoded segment reproduces exactly
  /// `length()` rows (RLE runs positive and summing to the length with
  /// correct run_starts, dict codes in range), that a declared
  /// `sorted_ascending()` actually holds under the CompareRows total order,
  /// and that a cached zone map soundly bounds the data it describes.
  /// O(length); call behind VX_DCHECK_OK, not on hot paths.
  Status CheckInvariants() const;

 private:
  /// Test-only backdoor (defined by the negative invariant tests, which
  /// must corrupt internal state without the mutation hooks healing it).
  friend struct ColumnTestAccess;
  void NoteAppend() {
    ++length_;
    if (!validity_.empty()) validity_.push_back(1);
  }
  void EnsureValidity();
  /// True when some cached derived state (encoded segment, zone map,
  /// sorted flag) must be invalidated before mutating.
  bool MutationInvalidatesState() const {
    return segment_ != nullptr || zone_map_ != nullptr || sorted_ascending_;
  }
  /// Reverts to plain representation and drops the zone map and the
  /// sorted-ascending flag before any mutation (all would silently go
  /// stale otherwise).
  void PrepareMutation();

  const std::vector<int64_t>& DecodedInts() const;
  const std::vector<uint8_t>& DecodedBools() const;
  const std::vector<std::string>& DecodedStrings() const;

  DataType type_;
  int64_t length_ = 0;
  int64_t null_count_ = 0;
  std::vector<uint8_t> validity_;  // empty == all valid
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> bools_;
  /// Encoded representation; when set, the typed vectors above are empty
  /// and reads go through the segment (lazily decoded).
  std::shared_ptr<const EncodedSegment> segment_;
  std::shared_ptr<const ZoneMapIndex> zone_map_;
  /// Declared nondecreasing under CompareRows; dropped on mutation.
  bool sorted_ascending_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_COLUMN_H_
