#include "storage/wal.h"

#include <algorithm>

#include "common/coding.h"
#include "common/strings.h"

namespace temporadb {

namespace {

// Log header: u64 magic | u64 start_lsn | u64 checksum(first 16 bytes).
// Records follow it in the framing of storage/record.h, `seq` being the LSN.
constexpr uint64_t kWalMagic = 0x54444257414C3031ULL;  // "TDBWAL01"

struct ScanResult {
  uint64_t next_lsn = 1;
  uint64_t valid_bytes = WriteAheadLog::kHeaderSize;
};

/// True when a record with a valid checksum starts at `offset` — used to
/// tell mid-log corruption (intact records follow the damage) from a torn
/// tail (nothing intelligible follows).
Result<bool> ValidRecordAt(File* file, uint64_t offset) {
  TDB_ASSIGN_OR_RETURN(FramedRecord rec, ReadRecordAt(file, offset));
  return rec.state == FramedRecord::State::kIntact;
}

/// Scans the records after the header.  Stops cleanly at a torn tail
/// (`valid_bytes` is where appends resume); reports Corruption when the
/// damage is followed by intact records or when LSNs are out of sequence.
Result<ScanResult> ScanLog(File* file, uint64_t start_lsn,
                           const std::function<Status(const WalRecord&)>* fn,
                           uint64_t from_lsn) {
  ScanResult result;
  result.next_lsn = start_lsn;
  uint64_t offset = WriteAheadLog::kHeaderSize;
  uint64_t expected = start_lsn;
  while (true) {
    TDB_ASSIGN_OR_RETURN(FramedRecord rec, ReadRecordAt(file, offset));
    // Clean EOF, a torn tail, or an implausible length (also a tear).
    if (rec.state == FramedRecord::State::kTruncated) break;
    if (rec.state == FramedRecord::State::kBadChecksum) {
      // Damaged record.  A tear is only a tear if nothing intact follows;
      // otherwise acknowledged data was corrupted and silence would drop
      // committed transactions.
      TDB_ASSIGN_OR_RETURN(bool intact_follows,
                           ValidRecordAt(file, offset + rec.size));
      if (intact_follows) {
        return Status::Corruption(StringPrintf(
            "WAL: corrupt record at offset %llu followed by intact records",
            (unsigned long long)offset));
      }
      break;
    }
    if (rec.seq != expected) {
      return Status::Corruption(StringPrintf(
          "WAL: LSN %llu at offset %llu, expected %llu",
          (unsigned long long)rec.seq, (unsigned long long)offset,
          (unsigned long long)expected));
    }
    if (fn != nullptr && rec.seq >= from_lsn) {
      WalRecord wal_rec;
      wal_rec.lsn = rec.seq;
      wal_rec.type = rec.type;
      wal_rec.payload = std::move(rec.payload);
      TDB_RETURN_IF_ERROR((*fn)(wal_rec));
    }
    result.next_lsn = rec.seq + 1;
    ++expected;
    offset += rec.size;
    result.valid_bytes = offset;
  }
  return result;
}

std::string EncodeHeader(uint64_t start_lsn) {
  std::string buf;
  PutFixed64(&buf, kWalMagic);
  PutFixed64(&buf, start_lsn);
  PutFixed64(&buf, Checksum64(buf.data(), buf.size()));
  return buf;
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, uint64_t min_next_lsn) {
  return Open(FileSystem::Default(), path, min_next_lsn);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    FileSystem* fs, const std::string& path, uint64_t min_next_lsn) {
  min_next_lsn = std::max<uint64_t>(min_next_lsn, 1);
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       fs->OpenFile(path, /*create=*/true));
  TDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  uint64_t start_lsn = min_next_lsn;
  bool reset_header = false;
  if (size < kHeaderSize) {
    // Empty, or a header torn mid-write.  The header is synced before any
    // record, so no acknowledged record can exist beyond a torn header.
    reset_header = true;
  } else {
    char raw[kHeaderSize];
    TDB_ASSIGN_OR_RETURN(size_t n, file->ReadAt(0, raw, kHeaderSize));
    std::string_view hv(raw, n);
    uint64_t magic = 0, lsn = 0, sum = 0;
    GetFixed64(&hv, &magic);
    GetFixed64(&hv, &lsn);
    GetFixed64(&hv, &sum);
    if (magic == kWalMagic && sum == Checksum64(raw, 16)) {
      start_lsn = lsn;
    } else {
      // Corrupt header.  If intact records follow it, this is damage to
      // acknowledged state, not a tear — refuse to guess.
      TDB_ASSIGN_OR_RETURN(bool intact, ValidRecordAt(file.get(), kHeaderSize));
      if (intact) {
        return Status::Corruption(
            "WAL: header corrupt but log contains intact records");
      }
      reset_header = true;
    }
  }
  if (reset_header) {
    TDB_RETURN_IF_ERROR(file->Truncate(0));
    std::string header = EncodeHeader(start_lsn);
    TDB_RETURN_IF_ERROR(file->WriteAt(0, header.data(), header.size()));
    TDB_RETURN_IF_ERROR(file->Sync());
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(std::move(file), start_lsn, kHeaderSize));
  }
  TDB_ASSIGN_OR_RETURN(ScanResult scan,
                       ScanLog(file.get(), start_lsn, nullptr, 0));
  if (scan.valid_bytes < size) {
    // Discard the torn tail so fresh appends start at a clean boundary —
    // and make the discard durable, so a later crash cannot resurrect
    // half a record in the middle of newly appended ones.
    TDB_RETURN_IF_ERROR(file->Truncate(scan.valid_bytes));
    TDB_RETURN_IF_ERROR(file->Sync());
  }
  uint64_t next_lsn = std::max(scan.next_lsn, min_next_lsn);
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(file), next_lsn, scan.valid_bytes));
}

Result<uint64_t> WriteAheadLog::Append(uint32_t type, Slice payload) {
  uint64_t lsn = next_lsn_;
  std::string buf;
  TDB_RETURN_IF_ERROR(EncodeRecord(lsn, type, payload, &buf));
  TDB_RETURN_IF_ERROR(file_->WriteAt(append_offset_, buf.data(), buf.size()));
  append_offset_ += buf.size();
  ++next_lsn_;
  return lsn;
}

Status WriteAheadLog::Sync() { return file_->Sync(); }

Status WriteAheadLog::Replay(
    uint64_t from_lsn,
    const std::function<Status(const WalRecord&)>& fn) const {
  // Re-read the header: the scan must use this log incarnation's first LSN.
  char raw[kHeaderSize];
  TDB_ASSIGN_OR_RETURN(size_t n, file_->ReadAt(0, raw, kHeaderSize));
  uint64_t start_lsn = 1;
  if (n == kHeaderSize) {
    std::string_view hv(raw + 8, 8);  // Magic and checksum were validated at Open.
    GetFixed64(&hv, &start_lsn);
  }
  Result<ScanResult> scan = ScanLog(file_.get(), start_lsn, &fn, from_lsn);
  return scan.ok() ? Status::OK() : scan.status();
}

Status WriteAheadLog::WriteHeader(uint64_t start_lsn) {
  std::string header = EncodeHeader(start_lsn);
  return file_->WriteAt(0, header.data(), header.size());
}

Status WriteAheadLog::Truncate() {
  TDB_RETURN_IF_ERROR(file_->Truncate(0));
  TDB_RETURN_IF_ERROR(WriteHeader(next_lsn_));
  append_offset_ = kHeaderSize;
  return file_->Sync();
}

Status WriteAheadLog::RewindTo(uint64_t offset, uint64_t lsn) {
  if (offset < kHeaderSize || offset > append_offset_) {
    return Status::InvalidArgument("WAL rewind offset out of range");
  }
  TDB_RETURN_IF_ERROR(file_->Truncate(offset));
  append_offset_ = offset;
  next_lsn_ = lsn;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::SizeBytes() const { return file_->Size(); }

Status CommitQueue::Commit(const std::vector<WalBatchEntry>& records,
                           bool sync) {
  // Refused before queueing: the leader's append would fail on it anyway,
  // but that failure would poison the queue for every later committer.
  for (const WalBatchEntry& rec : records) {
    if (rec.payload.size() > kMaxRecordPayload) {
      return Status::InvalidArgument("WAL record payload exceeds 64 MiB");
    }
  }
  Waiter me;
  me.records = &records;
  me.sync = sync;

  MutexLock lock(&mu_);
  if (poisoned_) {
    return Status::FailedPrecondition(
        "WAL in failed state after an I/O error; reopen the database");
  }
  queue_.push_back(&me);
  while (!(me.done || queue_.front() == &me)) cv_.Wait();
  if (me.done) {
    // A leader resolved this batch's barrier while we slept.
    return me.status;
  }
  if (poisoned_) {
    // A barrier ahead of us failed while we were queued; nothing may touch
    // the log until reopen.  Fail front-to-back so every queued committer
    // drains in order without becoming a leader.
    queue_.pop_front();
    cv_.SignalAll();
    return Status::FailedPrecondition(
        "WAL in failed state after an I/O error; reopen the database");
  }

  // Leader: snapshot the queue as one barrier.  Batches that arrive while
  // the leader is writing queue behind it and form the *next* barrier —
  // that keeps each barrier's rewind span well defined on failure.
  std::vector<Waiter*> barrier(queue_.begin(), queue_.end());
  const uint64_t rewind_offset = wal_->append_offset();
  const uint64_t rewind_lsn = wal_->next_lsn();
  bool want_sync = false;
  for (const Waiter* w : barrier) want_sync |= w->sync;

  // Write + sync with the lock released so committers can keep queueing.
  // The leader stays at queue_.front(), so no second leader can start.
  lock.Unlock();
  Status status = Status::OK();
  for (const Waiter* w : barrier) {
    for (const WalBatchEntry& rec : *w->records) {
      Result<uint64_t> lsn = wal_->Append(rec.type, rec.payload);
      if (!lsn.ok()) {
        status = lsn.status();
        break;
      }
    }
    if (!status.ok()) break;
  }
  if (status.ok() && want_sync) status = wal_->Sync();
  lock.Lock();

  ++barriers_;
  if (!status.ok()) {
    // Back out the whole barrier so a later successful sync cannot make
    // these unacknowledged records durable; a failed fsync leaves the
    // on-disk state unknowable, so poison until reopen.  Rewind failure is
    // absorbed: poisoning already blocks further writes.
    (void)wal_->RewindTo(rewind_offset, rewind_lsn);
    poisoned_ = true;
  }
  for (Waiter* w : barrier) {
    queue_.pop_front();
    if (w != &me) {
      w->status = status;
      w->done = true;
    }
  }
  cv_.SignalAll();
  return status;
}

bool CommitQueue::poisoned() const {
  MutexLock lock(&mu_);
  return poisoned_;
}

uint64_t CommitQueue::barriers() const {
  MutexLock lock(&mu_);
  return barriers_;
}

}  // namespace temporadb
