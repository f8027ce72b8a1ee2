#ifndef TEMPORADB_STORAGE_WAL_H_
#define TEMPORADB_STORAGE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/thread_annotations.h"
#include "storage/fs.h"
#include "storage/record.h"

namespace temporadb {

/// One record read back from the log during replay.
struct WalRecord {
  uint64_t lsn = 0;
  uint32_t type = 0;      ///< Caller-defined record kind.
  std::string payload;
};

/// A redo-only write-ahead log.
///
/// The temporal layer logs *logical* operations (begin/commit, version
/// appends, version closes); recovery replays committed transactions in LSN
/// order on top of the last checkpoint.
///
/// On-disk layout: a fixed header (magic, the first LSN of this log
/// incarnation, a checksum) followed by records in the framing of
/// `storage/record.h`, whose `seq` field is the LSN.  The header is what keeps LSNs
/// monotone across `Truncate`+reopen: truncation rewrites the header with
/// the resume LSN instead of silently restarting at 1.
///
/// Recovery discipline: records carry strictly sequential LSNs and an
/// FNV-1a checksum.  A torn *tail* (crash mid-append) is discarded and the
/// file is truncated + fsynced back to the last intact record — those
/// records were unacknowledged by definition.  A corrupt record *followed
/// by intact records* is not a tear; it means acknowledged data was damaged,
/// and `Open`/`Replay` report Corruption instead of silently dropping
/// committed transactions.
class WriteAheadLog {
 public:
  /// Bytes of the log header: magic, start LSN, checksum.
  static constexpr uint64_t kHeaderSize = 24;

  /// Opens (or creates) the log at `path`; scans once to find the next
  /// LSN.  `min_next_lsn` is a lower bound carried from the checkpoint
  /// manifest, so LSNs stay monotone even if the log file itself was lost
  /// or reset.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      FileSystem* fs, const std::string& path, uint64_t min_next_lsn = 1);
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     uint64_t min_next_lsn = 1);

  ~WriteAheadLog() = default;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends a record and returns its LSN.  Not yet durable; call `Sync`.
  /// A payload over `kMaxRecordPayload` is InvalidArgument and writes
  /// nothing: a reader would take it for a torn tail and drop it.
  Result<uint64_t> Append(uint32_t type, Slice payload);

  /// fsync barrier; a commit is acknowledged only after this succeeds.
  Status Sync();

  /// Streams every intact record with `lsn >= from_lsn` through `fn`.
  Status Replay(uint64_t from_lsn,
                const std::function<Status(const WalRecord&)>& fn) const;

  /// Empties the log after a checkpoint has made its effects durable.  The
  /// rewritten header carries the current `next_lsn`, so the LSN sequence
  /// continues across the truncation and any restart after it.
  Status Truncate();

  /// Drops everything appended at or after `offset` (from `append_offset`)
  /// and rewinds the LSN counter to `lsn`.  Used to back out the records of
  /// a commit whose sync failed, so a *later* successful sync cannot make
  /// an unacknowledged commit durable.
  Status RewindTo(uint64_t offset, uint64_t lsn);

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t append_offset() const { return append_offset_; }

  /// Log size in bytes (for the WAL bench).
  Result<uint64_t> SizeBytes() const;

 private:
  WriteAheadLog(std::unique_ptr<File> file, uint64_t next_lsn,
                uint64_t offset)
      : file_(std::move(file)), next_lsn_(next_lsn), append_offset_(offset) {}

  Status WriteHeader(uint64_t start_lsn);

  std::unique_ptr<File> file_;
  uint64_t next_lsn_;
  uint64_t append_offset_;
};

/// One record of a commit batch submitted to the `CommitQueue`.
struct WalBatchEntry {
  uint32_t type = 0;
  std::string payload;
};

/// Group commit: coalesces concurrently-arriving commit batches into one
/// write + fsync barrier (leader/follower, LevelDB-style).
///
/// Committers call `Commit` with the full record batch of their
/// transaction.  The first committer to reach the front of the queue
/// becomes the *leader*: it appends every queued committer's batch to the
/// log in arrival order, issues a single `Sync`, and wakes the followers
/// with the barrier's outcome.  Under N concurrent committers the fsync —
/// the dominant cost of a durable commit — is paid once per barrier, not
/// once per transaction, while each batch stays contiguous in the log (a
/// replayer sees whole transactions, never interleaved records).
///
/// Failure semantics (the fsyncgate discipline, inherited from the
/// single-committer path):
///  - If any append or the barrier fsync fails, the leader rewinds the log
///    tail to the barrier's start, and **every** committer in the barrier
///    — leader and followers alike — observes the failure.  A failed fsync
///    may have persisted an unknown prefix, so the queue is *poisoned*:
///    all later commits fail with FailedPrecondition until the database is
///    reopened and the log rescanned.
///  - A batch is acknowledged (OK returned) only after its barrier's fsync
///    succeeded; `sync=false` batches (durability off) are acknowledged
///    after the write.
///
/// The queue is the only WAL writer while in use: `Truncate`/`RewindTo` on
/// the underlying log (checkpointing) require external quiescence, exactly
/// as before.
class CommitQueue {
 public:
  explicit CommitQueue(WriteAheadLog* wal) : wal_(wal) {}

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Appends `records` contiguously and, with `sync`, makes them durable
  /// behind a shared fsync barrier.  Blocks until the batch's barrier
  /// resolves.  Thread-safe.  A record over `kMaxRecordPayload` fails the
  /// batch with InvalidArgument before it is queued; the log stays usable.
  Status Commit(const std::vector<WalBatchEntry>& records, bool sync)
      TDB_EXCLUDES(mu_);

  /// True after a barrier failed; every later `Commit` fails until reopen.
  bool poisoned() const TDB_EXCLUDES(mu_);

  /// Barriers (leader write+sync rounds) executed so far — the group-commit
  /// bench divides commits by barriers to report the coalescing factor.
  uint64_t barriers() const TDB_EXCLUDES(mu_);

 private:
  /// One queued committer.  `done` and `status` belong to the queue's
  /// `mu_` regime (the leader writes them with the lock reacquired, the
  /// owner reads them under the same lock); they live in a stack frame
  /// rather than the queue object, so the GUARDED_BY annotation cannot be
  /// expressed on the struct itself.
  struct Waiter {
    const std::vector<WalBatchEntry>* records;
    bool sync;
    bool done = false;
    Status status;
  };

  /// The log is written only by the barrier leader — leadership (being at
  /// `queue_.front()`) is what serializes access, not `mu_`, so the write
  /// + fsync happen with the lock released and committers free to queue.
  WriteAheadLog* wal_;
  mutable Mutex mu_;
  CondVar cv_{&mu_};
  std::deque<Waiter*> queue_ TDB_GUARDED_BY(mu_);
  bool poisoned_ TDB_GUARDED_BY(mu_) = false;
  uint64_t barriers_ TDB_GUARDED_BY(mu_) = 0;
};

}  // namespace temporadb

#endif  // TEMPORADB_STORAGE_WAL_H_
