#ifndef TEMPORADB_CORE_CHECKPOINT_H_
#define TEMPORADB_CORE_CHECKPOINT_H_

#include <functional>
#include <string>

#include "catalog/catalog.h"
#include "common/chronon.h"
#include "common/result.h"
#include "storage/fs.h"

namespace temporadb {

class VersionStore;

/// The one data file of a checkpoint directory.
inline constexpr const char kCheckpointFileName[] = "checkpoint.tdb";

/// The checkpoint image: a stream of records in the framing of
/// `storage/record.h`, whose `seq` is the record's ordinal from 1:
///
///   catalog     u32 format version | `Catalog::EncodeTo` (each entry with
///               its index declarations; the loader rebuilds those
///               B+-trees as the relation's slots load)
///   then, per relation in catalog (name) order:
///     slots*    the relation's slots in row order, each `u8 live` followed
///               by `BitemporalTuple::EncodeTo` when live, in runs of about
///               64 KiB (a single larger slot makes a larger run)
///     partitions  u64 relation id | u64 slot count | u64 n |
///               n sealed `PartitionSynopsis` encodings
///   end         u64 relation count | u64 slot total
///
/// Rollback and temporal relations are append-only, so the image carries
/// each relation's whole version history.  Tombstones are written too:
/// row ids are positional and the sealed partition boundaries (and any
/// WAL record replayed on top) refer to them.
///
/// Writes the image of `catalog`, each relation's slots and partitions
/// taken from `store_of(info)`, to the new file `path`, one record at a
/// time, and syncs the file.  The caller syncs the directory before
/// publishing it.
Status WriteCheckpoint(
    FileSystem* fs, const std::string& path, const Catalog& catalog,
    const std::function<const VersionStore*(const RelationInfo&)>& store_of);

/// What `ReadCheckpoint` returns besides the loaded stores.
struct LoadedCheckpoint {
  Catalog catalog;
  /// The latest finite transaction time of any loaded version, or
  /// `Chronon::Beginning()` when there is none: recovery must not hand out an
  /// earlier one.
  Chronon latest_txn_time = Chronon::Beginning();
};

/// Reads the image at `path` record by record.  For each relation of the
/// decoded catalog, in order, `open_store(info)` returns the empty store
/// its slots and sealed partitions are loaded into.  A checkpoint is synced
/// before CURRENT names it, so any damage — a short read, a bad checksum
/// or ordinal, an unknown or misplaced record, a payload that does not
/// decode exactly, bytes after the end record or no end record — is
/// Corruption, and so is a missing file.
Result<LoadedCheckpoint> ReadCheckpoint(
    FileSystem* fs, const std::string& path,
    const std::function<Result<VersionStore*>(const RelationInfo&)>&
        open_store);

}  // namespace temporadb

#endif  // TEMPORADB_CORE_CHECKPOINT_H_
