#ifndef TEMPORADB_EXEC_PARALLEL_SCAN_H_
#define TEMPORADB_EXEC_PARALLEL_SCAN_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace temporadb {
namespace exec {

/// Morsel geometry for a parallel scan.  ~2k rows per morsel keeps each
/// unit of work large enough to amortize scheduling but small enough that
/// a skewed filter (one hot morsel) cannot serialize the scan.
struct MorselOptions {
  size_t morsel_rows = 2048;
};

/// Slices a list of disjoint ascending row ranges (the survivors of
/// partition pruning) into contiguous chunks of at most `chunk_rows` rows,
/// restarting the chunk grid at every range boundary.  This is where morsel
/// geometry becomes partition-aligned: a pruned partition contributes no
/// range, hence no chunk, hence no morsel — it never enters the scheduler
/// at all.  With the single range `[0, n)` the chunk list is the plain
/// grid `[0, c), [c, 2c), ...`, so an unpruned scan keeps the geometry
/// (including batch boundaries) of an unpartitioned store.
///
/// `Range` needs `.begin`/`.end` members and brace-init (`RowRange`).
template <typename Range>
std::vector<Range> RangeChunks(const std::vector<Range>& ranges,
                               size_t chunk_rows) {
  std::vector<Range> chunks;
  if (chunk_rows == 0) chunk_rows = 1;
  for (const Range& r : ranges) {
    for (size_t b = r.begin; b < r.end; b += chunk_rows) {
      chunks.push_back(Range{b, b + chunk_rows < r.end ? b + chunk_rows
                                                       : r.end});
    }
  }
  return chunks;
}

/// Runs a morsel-parallel scan.  The domain is a list of disjoint
/// ascending row ranges (the survivors of partition pruning); each chunk
/// from `RangeChunks(ranges, opts.morsel_rows)` is one morsel.  `probe(begin,
/// end, &out)` runs per chunk, concurrently on the pool's workers (and the
/// calling thread), and the per-chunk outputs merge back **in chunk
/// order**, so the result is bit-identical to a single thread probing the
/// chunks front to back — and, because chunk geometry is independent of
/// thread count, identical across every pool size including the sequential
/// fallback (a null pool, or a pool of size 1).  That determinism is
/// load-bearing: the tests diff parallel against sequential results row
/// for row.
///
/// `probe` is invoked concurrently from multiple threads and must only
/// read shared state (the version store's immutable slots below the scan's
/// watermark) and write to its own `out`.
///
/// The pool belongs to the writer's side of the house: it is driven by
/// writer-thread scans only.  Snapshot-isolated readers (`ReadSnapshot`)
/// never call this — their scans are sequential on the reading thread
/// by design, so concurrent pinned readers cannot contend for (or
/// deadlock on) the single-job pool the writer is using.
template <typename Match, typename Range, typename Probe>
std::vector<Match> ParallelScanRanges(ThreadPool* pool,
                                      const std::vector<Range>& ranges,
                                      const Probe& probe,
                                      MorselOptions opts = {}) {
  std::vector<Match> merged;
  const std::vector<Range> chunks = RangeChunks(ranges, opts.morsel_rows);
  if (chunks.empty()) return merged;
  if (pool == nullptr || pool->size() <= 1 || chunks.size() <= 1) {
    for (const Range& c : chunks) probe(c.begin, c.end, &merged);
    return merged;
  }
  std::vector<std::vector<Match>> per_chunk(chunks.size());
  pool->ParallelFor(chunks.size(), [&](size_t m) {
    probe(chunks[m].begin, chunks[m].end, &per_chunk[m]);
  });
  size_t total = 0;
  for (const std::vector<Match>& part : per_chunk) total += part.size();
  merged.reserve(total);
  for (std::vector<Match>& part : per_chunk) {
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  return merged;
}

}  // namespace exec
}  // namespace temporadb

#endif  // TEMPORADB_EXEC_PARALLEL_SCAN_H_
