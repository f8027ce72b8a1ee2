#include "core/checkpoint.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/strings.h"
#include "storage/record.h"
#include "temporal/bitemporal_tuple.h"
#include "temporal/partition.h"
#include "temporal/version_store.h"

namespace temporadb {

namespace {

// 2: catalog entries carry their index declarations.  No reader for 1.
constexpr uint32_t kFormatVersion = 2;

// Record types of the checkpoint stream.
constexpr uint32_t kCatalogRecord = 1;
constexpr uint32_t kSlotsRecord = 2;
constexpr uint32_t kPartitionsRecord = 3;
constexpr uint32_t kEndRecord = 4;

// A slot run is flushed as a record once it reaches this size, so the
// writer holds about one run of encoded slots at a time.
constexpr size_t kSlotRunBytes = 64 << 10;

/// Appends framed records at a running offset.
class StreamWriter {
 public:
  explicit StreamWriter(File* file) : file_(file) {}

  Status Append(uint32_t type, Slice payload) {
    frame_.clear();
    TDB_RETURN_IF_ERROR(EncodeRecord(++seq_, type, payload, &frame_));
    TDB_RETURN_IF_ERROR(file_->WriteAt(offset_, frame_.data(), frame_.size()));
    offset_ += frame_.size();
    return Status::OK();
  }

 private:
  File* file_;
  uint64_t seq_ = 0;
  uint64_t offset_ = 0;
  std::string frame_;  ///< Reused across records.
};

/// Reads framed records in order, tolerating no damage at all.
class StreamReader {
 public:
  explicit StreamReader(File* file) : file_(file) {}

  /// The next record, which must be intact, carry the next ordinal and be
  /// of type `want` (or of `also`, when given).
  Result<FramedRecord> Next(uint32_t want, uint32_t also = 0) {
    start_ = end_;
    ++seq_;
    TDB_ASSIGN_OR_RETURN(FramedRecord rec, ReadRecordAt(file_, start_));
    if (rec.state != FramedRecord::State::kIntact) {
      return Corrupt(rec.state == FramedRecord::State::kTruncated
                         ? "truncated record"
                         : "record checksum mismatch");
    }
    if (rec.seq != seq_) return Corrupt("record out of sequence");
    if (rec.type != want && (also == 0 || rec.type != also)) {
      return Corrupt("unexpected record type");
    }
    end_ = start_ + rec.size;
    return rec;
  }

  /// Corruption naming the record last asked for.
  Status Corrupt(const char* what) const {
    return Status::Corruption(
        StringPrintf("checkpoint: %s in record %llu at offset %llu", what,
                     (unsigned long long)seq_, (unsigned long long)start_));
  }

  /// Where the records read so far end.
  uint64_t end() const { return end_; }

 private:
  File* file_;
  uint64_t seq_ = 0;    ///< Ordinal of the record last asked for.
  uint64_t start_ = 0;  ///< Its offset.
  uint64_t end_ = 0;
};

Status WriteRelation(StreamWriter* out, const RelationInfo& info,
                     const VersionStore& store, uint64_t* slots) {
  std::string run;
  uint64_t count = 0;
  Status status = Status::OK();
  store.ForEachSlot([&](RowId, const BitemporalTuple* tuple) {
    if (!status.ok()) return;
    ++count;
    run.push_back(tuple != nullptr ? 1 : 0);
    if (tuple != nullptr) tuple->EncodeTo(&run);
    if (run.size() >= kSlotRunBytes) {
      status = out->Append(kSlotsRecord, run);
      run.clear();
    }
  });
  TDB_RETURN_IF_ERROR(status);
  if (!run.empty()) TDB_RETURN_IF_ERROR(out->Append(kSlotsRecord, run));
  std::string parts;
  PutFixed64(&parts, info.id);
  PutFixed64(&parts, count);
  PutFixed64(&parts, store.sealed_partition_count());
  for (size_t i = 0; i < store.sealed_partition_count(); ++i) {
    store.sealed_partition(i).EncodeTo(&parts);
  }
  TDB_RETURN_IF_ERROR(out->Append(kPartitionsRecord, parts));
  *slots += count;
  return Status::OK();
}

/// Loads one run of slots into `store`.
Status LoadSlots(const StreamReader& in, std::string_view run,
                 const RelationInfo& info, VersionStore* store,
                 Chronon* latest) {
  if (run.empty()) return in.Corrupt("empty slot run");
  while (!run.empty()) {
    const char live = run[0];
    run.remove_prefix(1);
    if (live == 0) {
      store->LoadSlot(std::nullopt);
      continue;
    }
    if (live != 1) return in.Corrupt("bad slot flag");
    TDB_ASSIGN_OR_RETURN(BitemporalTuple tuple,
                         BitemporalTuple::DecodeFrom(&run));
    if (tuple.values.size() != info.schema.size()) {
      return in.Corrupt("slot arity differs from the relation's schema");
    }
    // Transaction time must never regress across recovery, even though
    // the checkpoint truncated the WAL records that carried it.
    for (Chronon t : {tuple.txn.begin(), tuple.txn.end()}) {
      if (t.IsFinite() && *latest < t) *latest = t;
    }
    store->LoadSlot(std::move(tuple));
  }
  return Status::OK();
}

Status ReadRelation(StreamReader* in, const RelationInfo& info,
                    VersionStore* store, Chronon* latest) {
  store->BeginLoad();
  while (true) {
    TDB_ASSIGN_OR_RETURN(FramedRecord rec,
                         in->Next(kSlotsRecord, kPartitionsRecord));
    if (rec.type == kSlotsRecord) {
      TDB_RETURN_IF_ERROR(LoadSlots(*in, rec.payload, info, store, latest));
      continue;
    }
    std::string_view view = rec.payload;
    uint64_t rel_id = 0, slots = 0, n = 0;
    if (!GetFixed64(&view, &rel_id) || !GetFixed64(&view, &slots) ||
        !GetFixed64(&view, &n)) {
      return in->Corrupt("malformed partitions record");
    }
    if (rel_id != info.id || slots != store->version_count()) {
      return in->Corrupt("partitions record does not match its relation");
    }
    // Decoded until the payload ends, then checked against the count, so
    // a damaged count cannot size an allocation.
    std::vector<PartitionSynopsis> parts;
    while (!view.empty()) {
      if (!PartitionSynopsis::DecodeFrom(&view, &parts.emplace_back())) {
        return in->Corrupt("malformed partition synopsis");
      }
    }
    if (parts.size() != n) return in->Corrupt("partition count mismatch");
    TDB_RETURN_IF_ERROR(store->InstallSealedPartitions(std::move(parts)));
    store->EndLoad();
    return Status::OK();
  }
}

}  // namespace

Status WriteCheckpoint(
    FileSystem* fs, const std::string& path, const Catalog& catalog,
    const std::function<const VersionStore*(const RelationInfo&)>& store_of) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       fs->OpenFile(path, /*create=*/true));
  StreamWriter out(file.get());
  std::string header;
  PutFixed32(&header, kFormatVersion);
  catalog.EncodeTo(&header);
  TDB_RETURN_IF_ERROR(out.Append(kCatalogRecord, header));
  const std::vector<RelationInfo> relations = catalog.ListRelations();
  uint64_t slots = 0;
  for (const RelationInfo& info : relations) {
    TDB_RETURN_IF_ERROR(WriteRelation(&out, info, *store_of(info), &slots));
  }
  std::string end;
  PutFixed64(&end, relations.size());
  PutFixed64(&end, slots);
  TDB_RETURN_IF_ERROR(out.Append(kEndRecord, end));
  return file->Sync();
}

Result<LoadedCheckpoint> ReadCheckpoint(
    FileSystem* fs, const std::string& path,
    const std::function<Result<VersionStore*>(const RelationInfo&)>&
        open_store) {
  Result<std::unique_ptr<File>> opened = fs->OpenFile(path, /*create=*/false);
  if (!opened.ok()) {
    if (!opened.status().IsNotFound()) return opened.status();
    return Status::Corruption("checkpoint: " + path + " is missing");
  }
  File* file = opened->get();
  StreamReader in(file);
  LoadedCheckpoint loaded;
  {
    TDB_ASSIGN_OR_RETURN(FramedRecord rec, in.Next(kCatalogRecord));
    std::string_view view = rec.payload;
    uint32_t version = 0;
    if (!GetFixed32(&view, &version) || version != kFormatVersion) {
      return in.Corrupt("unknown format version");
    }
    TDB_ASSIGN_OR_RETURN(loaded.catalog, Catalog::DecodeFrom(&view));
    if (!view.empty()) return in.Corrupt("trailing bytes in catalog");
  }
  const std::vector<RelationInfo> relations = loaded.catalog.ListRelations();
  uint64_t slots = 0;
  for (const RelationInfo& info : relations) {
    TDB_ASSIGN_OR_RETURN(VersionStore * store, open_store(info));
    TDB_RETURN_IF_ERROR(
        ReadRelation(&in, info, store, &loaded.latest_txn_time));
    slots += store->version_count();
  }
  TDB_ASSIGN_OR_RETURN(FramedRecord end, in.Next(kEndRecord));
  std::string_view view = end.payload;
  uint64_t want_relations = 0, want_slots = 0;
  if (!GetFixed64(&view, &want_relations) || !GetFixed64(&view, &want_slots) ||
      !view.empty() || want_relations != relations.size() ||
      want_slots != slots) {
    return in.Corrupt("end record does not match the stream");
  }
  TDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (in.end() != size) return in.Corrupt("bytes after the end record");
  return loaded;
}

}  // namespace temporadb
