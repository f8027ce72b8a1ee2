#include "storage/record.h"

#include "common/coding.h"

namespace temporadb {

Status EncodeRecord(uint64_t seq, uint32_t type, Slice payload,
                    std::string* dst) {
  if (payload.size() > kMaxRecordPayload) {
    return Status::InvalidArgument("record payload exceeds 64 MiB");
  }
  const size_t start = dst->size();
  dst->reserve(start + kRecordHeaderSize + payload.size() +
               kRecordTrailerSize);
  PutFixed64(dst, seq);
  PutFixed32(dst, type);
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  dst->append(payload.data(), payload.size());
  PutFixed64(dst, Checksum64(dst->data() + start, dst->size() - start));
  return Status::OK();
}

Result<FramedRecord> ReadRecordAt(File* file, uint64_t offset) {
  FramedRecord rec;
  char header[kRecordHeaderSize];
  TDB_ASSIGN_OR_RETURN(size_t n,
                       file->ReadAt(offset, header, kRecordHeaderSize));
  if (n < kRecordHeaderSize) return rec;
  std::string_view hv(header, kRecordHeaderSize);
  uint32_t len = 0;
  GetFixed64(&hv, &rec.seq);
  GetFixed32(&hv, &rec.type);
  GetFixed32(&hv, &len);
  if (len > kMaxRecordPayload) return rec;
  // Payload and checksum in one read; the checksum is split off below.
  std::string body(len + kRecordTrailerSize, '\0');
  TDB_ASSIGN_OR_RETURN(size_t bn, file->ReadAt(offset + kRecordHeaderSize,
                                               body.data(), body.size()));
  if (bn < body.size()) return rec;
  std::string_view trailer(body.data() + len, kRecordTrailerSize);
  uint64_t stored = 0;
  GetFixed64(&trailer, &stored);
  rec.size = kRecordHeaderSize + body.size();
  const uint64_t sum =
      Checksum64(body.data(), len, Checksum64(header, kRecordHeaderSize));
  if (sum != stored) {
    rec.state = FramedRecord::State::kBadChecksum;
    return rec;
  }
  body.resize(len);
  rec.payload = std::move(body);
  rec.state = FramedRecord::State::kIntact;
  return rec;
}

}  // namespace temporadb
