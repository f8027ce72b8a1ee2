#ifndef TEMPORADB_STORAGE_RECORD_H_
#define TEMPORADB_STORAGE_RECORD_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "storage/fs.h"

namespace temporadb {

/// The record framing shared by the write-ahead log and the checkpoint
/// stream:
///
///   u64 seq | u32 type | u32 len | payload (len bytes) | u64 checksum
///
/// `seq` is the WAL's LSN or the checkpoint record's ordinal; `type` is
/// the caller's record kind.  The FNV-1a checksum covers every byte before
/// it.  Each stream decides what a damaged record means: the WAL tells a
/// torn tail from mid-log corruption, the checkpoint reader rejects both.

/// Bytes before the payload: seq, type, len.
inline constexpr uint64_t kRecordHeaderSize = 8 + 4 + 4;
/// Bytes after the payload: the checksum.
inline constexpr uint64_t kRecordTrailerSize = 8;
/// Largest payload a record may carry.  A reader treats a larger length
/// field as damage, so a writer must never produce one.
inline constexpr uint32_t kMaxRecordPayload = 64u << 20;

/// Appends one framed record to `*dst`.  InvalidArgument, with nothing
/// appended, when the payload exceeds `kMaxRecordPayload`.
Status EncodeRecord(uint64_t seq, uint32_t type, Slice payload,
                    std::string* dst);

/// One record as read back from a file.
struct FramedRecord {
  enum class State {
    kIntact,       ///< Complete and its checksum matches.
    kTruncated,    ///< The file ends inside it, or its length is implausible.
    kBadChecksum,  ///< Complete, but its bytes do not match the checksum.
  };
  State state = State::kTruncated;
  uint64_t seq = 0;
  uint32_t type = 0;
  std::string payload;  ///< Set only when intact.
  /// Bytes the record spans in the file; set unless truncated.
  uint64_t size = 0;
};

/// Reads the record that starts at `offset`.  Only an I/O error is a
/// non-OK result; damage is reported through `FramedRecord::state`.
Result<FramedRecord> ReadRecordAt(File* file, uint64_t offset);

}  // namespace temporadb

#endif  // TEMPORADB_STORAGE_RECORD_H_
