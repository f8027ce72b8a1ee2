#include "catalog/catalog.h"

#include <algorithm>

#include "common/coding.h"

namespace temporadb {

namespace {

// Appends `attr` to the entry's index declarations: InvalidArgument at or
// beyond the arity, AlreadyExists for a second declaration.
Status DeclareIndex(RelationInfo* info, uint32_t attr) {
  if (attr >= info->schema.size()) {
    return Status::InvalidArgument("attribute index out of range");
  }
  if (std::find(info->indexed_attrs.begin(), info->indexed_attrs.end(),
                attr) != info->indexed_attrs.end()) {
    return Status::AlreadyExists("attribute is already indexed");
  }
  info->indexed_attrs.push_back(attr);
  return Status::OK();
}

}  // namespace

Result<RelationInfo> Catalog::CreateRelation(std::string name, Schema schema,
                                             TemporalClass temporal_class,
                                             TemporalDataModel data_model,
                                             bool persistent) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (relations_.contains(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  if (schema.empty()) {
    return Status::InvalidArgument("relation must have at least one attribute");
  }
  if (data_model == TemporalDataModel::kEvent &&
      !SupportsValidTime(temporal_class)) {
    return Status::InvalidArgument(
        "event relations require valid time (historical or temporal class)");
  }
  RelationInfo info;
  info.id = next_id_++;
  info.name = name;
  info.schema = std::move(schema);
  info.temporal_class = temporal_class;
  info.data_model = data_model;
  info.persistent = persistent;
  relations_.emplace(std::move(name), info);
  return info;
}

Result<RelationInfo> Catalog::GetRelation(std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no such relation: " + std::string(name));
  }
  return it->second;
}

bool Catalog::HasRelation(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

Status Catalog::DropRelation(std::string_view name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no such relation: " + std::string(name));
  }
  relations_.erase(it);
  return Status::OK();
}

Status Catalog::AddIndex(std::string_view name, uint32_t attr) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no such relation: " + std::string(name));
  }
  return DeclareIndex(&it->second, attr);
}

std::vector<RelationInfo> Catalog::ListRelations() const {
  std::vector<RelationInfo> out;
  out.reserve(relations_.size());
  for (const auto& [name, info] : relations_) out.push_back(info);
  return out;
}

void EncodeRelationInfo(const RelationInfo& info, std::string* out) {
  PutFixed64(out, info.id);
  PutLengthPrefixed(out, info.name);
  info.schema.EncodeTo(out);
  PutFixed32(out, static_cast<uint32_t>(info.temporal_class));
  PutFixed32(out, static_cast<uint32_t>(info.data_model));
  PutFixed32(out, info.persistent ? 1 : 0);
  PutFixed32(out, static_cast<uint32_t>(info.indexed_attrs.size()));
  for (uint32_t attr : info.indexed_attrs) PutFixed32(out, attr);
}

Result<RelationInfo> DecodeRelationInfo(std::string_view* in) {
  RelationInfo info;
  std::string_view name;
  if (!GetFixed64(in, &info.id) || !GetLengthPrefixed(in, &name)) {
    return Status::Corruption("catalog: truncated relation entry");
  }
  info.name = std::string(name);
  TDB_ASSIGN_OR_RETURN(info.schema, Schema::DecodeFrom(in));
  uint32_t tclass, dmodel, persistent;
  if (!GetFixed32(in, &tclass) || !GetFixed32(in, &dmodel) ||
      !GetFixed32(in, &persistent)) {
    return Status::Corruption("catalog: truncated relation flags");
  }
  if (tclass > static_cast<uint32_t>(TemporalClass::kTemporal) ||
      dmodel > static_cast<uint32_t>(TemporalDataModel::kEvent)) {
    return Status::Corruption("catalog: unknown temporal class or model");
  }
  info.temporal_class = static_cast<TemporalClass>(tclass);
  info.data_model = static_cast<TemporalDataModel>(dmodel);
  info.persistent = persistent != 0;
  // A count beyond the arity fails within arity + 1 declarations: each
  // must be in range and new.
  uint32_t indexes;
  if (!GetFixed32(in, &indexes)) {
    return Status::Corruption("catalog: truncated index count");
  }
  for (uint32_t i = 0; i < indexes; ++i) {
    uint32_t attr;
    if (!GetFixed32(in, &attr)) {
      return Status::Corruption("catalog: truncated index declaration");
    }
    if (!DeclareIndex(&info, attr).ok()) {
      return Status::Corruption(
          "catalog: index declaration out of range or repeated");
    }
  }
  return info;
}

void Catalog::EncodeTo(std::string* out) const {
  PutFixed64(out, next_id_);
  PutFixed32(out, static_cast<uint32_t>(relations_.size()));
  for (const auto& [name, info] : relations_) EncodeRelationInfo(info, out);
}

Result<Catalog> Catalog::DecodeFrom(std::string_view* in) {
  Catalog catalog;
  uint32_t count;
  if (!GetFixed64(in, &catalog.next_id_) || !GetFixed32(in, &count)) {
    return Status::Corruption("catalog: truncated header");
  }
  for (uint32_t i = 0; i < count; ++i) {
    TDB_ASSIGN_OR_RETURN(RelationInfo info, DecodeRelationInfo(in));
    if (info.id >= catalog.next_id_ ||
        !catalog.relations_.emplace(info.name, info).second) {
      return Status::Corruption("catalog: duplicate or out-of-range entry");
    }
  }
  return catalog;
}

}  // namespace temporadb
