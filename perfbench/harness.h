#ifndef TEMPORADB_PERFBENCH_HARNESS_H_
#define TEMPORADB_PERFBENCH_HARNESS_H_

// Measurement helpers for the temporadb benchmark: the percentile rule,
// order-insensitive result digests, a counting FileSystem, and an in-memory
// span tracer.  Everything here observes the engine from outside, through
// its public API.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rel/relation.h"
#include "storage/fs.h"

namespace perfbench {

using temporadb::File;
using temporadb::FileSystem;
using temporadb::Result;
using temporadb::Rowset;
using temporadb::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentiles --------------------------------------------------------

/// Fewest samples that must lie strictly above a reported percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` in (0, 1) of ascending `sorted`, or nullopt
/// when fewer than kMinTailSamples samples lie beyond it: a tail figure
/// resting on a handful of samples is not reported.
std::optional<double> TailPercentile(const std::vector<double>& sorted,
                                     double q);

/// Mean of the samples from percentile `q` up (the tail's expected value),
/// under the same rule as TailPercentile.
std::optional<double> TailMean(const std::vector<double>& sorted, double q);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Samples grouped by key: one key per query of a list, or per statement
/// of a stream that a run applies several times.
class KeyedSamples {
 public:
  void Add(size_t key, double value) {
    if (key >= by_key_.size()) by_key_.resize(key + 1);
    by_key_[key].push_back(value);
    ++count_;
  }
  void Merge(const KeyedSamples& other) {
    for (size_t k = 0; k < other.by_key_.size(); ++k) {
      for (double v : other.by_key_[k]) Add(k, v);
    }
  }
  size_t count() const { return count_; }
  const std::vector<double>& key(size_t k) const { return by_key_[k]; }
  size_t keys() const { return by_key_.size(); }

  /// Every sample, ascending.
  std::vector<double> SortedAll() const;
  /// Each non-empty key's median, ascending.  Aggregates over these
  /// describe the cost of the mix of keys, and a key's median ignores the
  /// stretches of a run its other samples spent on a slowed processor.
  std::vector<double> SortedKeyMedians() const;

 private:
  std::vector<std::vector<double>> by_key_;
  size_t count_ = 0;
};

// --- Result digests -----------------------------------------------------

/// FNV-1a over the row's values and periods.
uint64_t RowDigest(const temporadb::Row& row);

/// Digest of a rowset's content that ignores row order, so a plan change
/// that emits the same rows in another order keeps the digest.  Rows are
/// mixed and summed (a multiset hash), then the schema arity and row count
/// are folded in.
uint64_t ResultDigest(const Rowset& rows);

/// Order-insensitive combination of keyed digests (one per query of a
/// list): the sum of a strong mix of (key, digest).
uint64_t CombineKeyed(uint64_t acc, uint64_t key, uint64_t digest);

// --- Tracing ------------------------------------------------------------

/// One timed call into a layer.  `parent` indexes the enclosing span in
/// the same TraceBuffer (-1 at a root); spans of one request share
/// `request`.
struct Span {
  const char* name;
  int32_t parent;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// A client thread's spans, kept in memory until the run ends.  A thread
/// binds its buffer to make ScopedSpan (and the counting FileSystem)
/// record into it; while nothing is bound, spans cost one thread-local
/// load.
class TraceBuffer {
 public:
  TraceBuffer() = default;
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// The buffer bound to the calling thread, or null.
  static TraceBuffer* Current();
  /// Binds this buffer to the calling thread for one request.
  void BeginRequest(uint64_t request);
  /// Unbinds whatever buffer the calling thread has bound.
  static void EndRequest();

  int32_t Open(const char* name);
  void Close(int32_t idx);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
};

/// Records a span around its scope into the thread's bound buffer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : buf_(TraceBuffer::Current()), idx_(buf_ ? buf_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->Close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buf_;
  int32_t idx_;
};

/// Per span name: calls and total self time (span duration minus the part
/// covered by its direct children).
struct SelfTime {
  uint64_t calls = 0;
  int64_t self_ns = 0;
  double MeanUs() const {
    return calls == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 / calls;
  }
};
void AccumulateSelfTimes(const std::vector<Span>& spans,
                         std::map<std::string, SelfTime>* out);

/// Writes every span as one CSV line: thread,index,parent,request,name,
/// start_ns,end_ns.
Status WriteSpans(const std::string& path,
                  const std::vector<const TraceBuffer*>& buffers);

// --- Counting filesystem ------------------------------------------------

/// Byte, sync and timing counters over everything the engine persists.
struct IoCounters {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> file_syncs{0};
  std::atomic<uint64_t> dir_syncs{0};
  std::atomic<int64_t> sync_ns{0};  ///< Time inside File::Sync and SyncDir.
};

/// A plain-value copy of IoCounters, for before/after differences.
struct IoSnapshot {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t file_syncs = 0;
  uint64_t dir_syncs = 0;
  int64_t sync_ns = 0;
  IoSnapshot operator-(const IoSnapshot& o) const {
    return {bytes_written - o.bytes_written, bytes_read - o.bytes_read,
            file_syncs - o.file_syncs, dir_syncs - o.dir_syncs,
            sync_ns - o.sync_ns};
  }
};

/// Delegates every call to `base` and counts bytes, syncs and time spent
/// syncing, and per thread the time spent in any call.  Each sync also
/// records a `storage.sync` span into the calling thread's bound
/// TraceBuffer.  Pass it as DatabaseOptions::fs; it must outlive the
/// database.
class CountingFileSystem : public FileSystem {
 public:
  explicit CountingFileSystem(FileSystem* base) : base_(base) {}

  IoSnapshot Snapshot() const;

  /// Time the calling thread has spent inside File::Sync and SyncDir of
  /// any CountingFileSystem, in ns.  Subtracting it from a call's duration
  /// leaves the time the call did not wait on the device.
  static int64_t ThreadSyncNs();
  /// Time the calling thread has spent inside any call of any
  /// CountingFileSystem or of a file it opened, syncs included, in ns.
  static int64_t ThreadFsNs();

  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status MakeDir(const std::string& path) override;
  Status RemoveDir(const std::string& path) override;
  Status SyncDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  bool DirExists(const std::string& path) override;

 private:
  FileSystem* base_;
  IoCounters counters_;
};

// --- Process ------------------------------------------------------------

/// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // TEMPORADB_PERFBENCH_HARNESS_H_
