// Internal layout of one immutable index segment and of an engine epoch
// (the live-ingestion subsystem; see search_engine.h for the public API
// and docs/ARCHITECTURE.md "Epoch lifecycle" for the state machine).
//
// A *segment* is a self-contained, frozen slice of the index covering the
// contiguous table-id range [first_id, first_id + entries.size()): the
// detached per-table encodings, the segment's f32 mean-embedding block,
// a frozen LSH index whose payloads are *global* table ids, and a frozen
// interval tree. Segments are immutable after construction and shared
// between epochs via shared_ptr — an epoch never copies a segment, and a
// segment's encodings (TableEntry) are themselves shared so compaction
// re-slices the means without duplicating tensors.
//
// An *epoch* is an ordered list of segments (base first, then delta
// segments in ingest order) whose id ranges tile [0, num_tables) exactly.
// Readers pin an epoch (shared_ptr copy) and run every query stage
// against that pin; writers publish a new epoch by swapping the engine's
// pointer. A retired epoch — and any segment no newer epoch references —
// is destroyed when its last pinned reader drains: RCU with refcounts in
// place of grace periods.

#ifndef FCM_INDEX_INDEX_SEGMENT_H_
#define FCM_INDEX_INDEX_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fcm_model.h"
#include "index/interval_tree.h"
#include "index/lsh.h"
#include "storage/span.h"
#include "table/table.h"

namespace fcm::index {

/// Everything cached for one table: detached encodings plus the size of
/// its mean-embedding slice. Immutable once built and shared across
/// segments (compaction re-slices mean offsets per segment, so the
/// offset lives in IndexSegment::mean_begin, not here).
struct TableEntry {
  core::DatasetRepresentation encoding;
  std::vector<core::DatasetRepresentation> derivations;
  /// Mean vectors this table contributes (column means first, then each
  /// derivation's), each embed_dim floats.
  size_t num_means = 0;
};

/// One immutable frozen index slice over a contiguous table-id range.
struct IndexSegment {
  /// Global id of entries[0]; entry for table `id` is
  /// entries[id - first_id].
  table::TableId first_id = 0;
  std::vector<std::shared_ptr<const TableEntry>> entries;

  /// Row offset of each entry's mean slice in this segment's means block
  /// (parallel to `entries`; entry i owns rows
  /// [mean_begin[i], mean_begin[i] + entries[i]->num_means)).
  std::vector<uint64_t> mean_begin;

  /// Mean-embedding block: rows x embed_dim floats. Owned after a build
  /// or ingest; a zero-copy view into the snapshot after OpenSnapshot.
  std::vector<float> means_data;
  storage::Span<float> means_view;

  /// Frozen interval tree over this segment's column ranges; payloads are
  /// global table ids.
  std::unique_ptr<IntervalTree> interval_tree;

  /// Frozen LSH over this segment's mean rows; payloads are global table
  /// ids. Hyperplanes are a pure function of (dim, LshConfig) — identical
  /// across every segment of an engine — so a query code probes the same
  /// buckets in every segment, and the union of per-segment hits equals a
  /// from-scratch single-index build's hits exactly.
  std::unique_ptr<RandomHyperplaneLsh> lsh;

  size_t num_tables() const { return entries.size(); }
  table::TableId end_id() const {
    return first_id + static_cast<table::TableId>(entries.size());
  }
};

}  // namespace fcm::index

#endif  // FCM_INDEX_INDEX_SEGMENT_H_
