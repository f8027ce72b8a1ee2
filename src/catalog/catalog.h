#ifndef TEMPORADB_CATALOG_CATALOG_H_
#define TEMPORADB_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/temporal_class.h"
#include "common/result.h"

namespace temporadb {

/// Catalog metadata for one relation.
struct RelationInfo {
  uint64_t id = 0;
  std::string name;
  Schema schema;                   ///< Explicit attributes only.
  TemporalClass temporal_class = TemporalClass::kStatic;
  TemporalDataModel data_model = TemporalDataModel::kInterval;
  bool persistent = false;         ///< Logged and checkpointed to disk.
  /// Attributes carrying a secondary B+-tree index (`create index`), in
  /// declaration order.  The catalog's entry is the durable record; a
  /// relation object's copy is taken at creation and not kept in step.
  std::vector<uint32_t> indexed_attrs;
};

/// Binary round-trip of one catalog entry; the WAL logs `create` in the
/// same encoding.  Decoding consumes from `*in` and returns Corruption on
/// truncated input, an out-of-range class, data model or attribute type,
/// or an index declaration naming an attribute at or beyond the arity or
/// the same attribute twice.
void EncodeRelationInfo(const RelationInfo& info, std::string* out);
Result<RelationInfo> DecodeRelationInfo(std::string_view* in);

/// The system catalog: relation name -> metadata.
///
/// The catalog stores only *metadata*; the relation contents live in the
/// temporal layer's relation objects, which the `core::Database` facade
/// associates with catalog entries by id.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers a relation; fails with AlreadyExists on a name clash.
  Result<RelationInfo> CreateRelation(std::string name, Schema schema,
                                      TemporalClass temporal_class,
                                      TemporalDataModel data_model,
                                      bool persistent);

  /// Looks up by name; NotFound if absent.
  Result<RelationInfo> GetRelation(std::string_view name) const;

  bool HasRelation(std::string_view name) const;

  /// Removes a relation (TQuel `destroy`).
  Status DropRelation(std::string_view name);

  /// Records that attribute `attr` of relation `name` is indexed.  NotFound
  /// for an unknown relation, InvalidArgument for an attribute at or beyond
  /// the arity, AlreadyExists for a second declaration.
  Status AddIndex(std::string_view name, uint32_t attr);

  /// All relations in name order.
  std::vector<RelationInfo> ListRelations() const;

  /// Binary round-trip so the catalog can be persisted alongside the data.
  void EncodeTo(std::string* out) const;
  static Result<Catalog> DecodeFrom(std::string_view* in);

  size_t size() const { return relations_.size(); }

 private:
  std::map<std::string, RelationInfo, std::less<>> relations_;
  uint64_t next_id_ = 1;
};

}  // namespace temporadb

#endif  // TEMPORADB_CATALOG_CATALOG_H_
