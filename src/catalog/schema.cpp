#include "catalog/schema.h"

#include <algorithm>
#include <unordered_set>

#include "common/coding.h"

namespace temporadb {

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {}

Result<Schema> Schema::Make(std::vector<Attribute> attributes) {
  std::unordered_set<std::string> seen;
  for (const auto& a : attributes) {
    if (a.name.empty()) {
      return Status::InvalidArgument("attribute with empty name");
    }
    if (!seen.insert(a.name).second) {
      return Status::InvalidArgument("duplicate attribute name: " + a.name);
    }
  }
  return Schema(std::move(attributes));
}

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

Schema Schema::Project(const std::vector<size_t>& indexes,
                       const std::vector<std::string>* names) const {
  std::vector<Attribute> attrs;
  attrs.reserve(indexes.size());
  for (size_t i = 0; i < indexes.size(); ++i) {
    Attribute a = attributes_[indexes[i]];
    if (names != nullptr && i < names->size() && !(*names)[i].empty()) {
      a.name = (*names)[i];
    }
    attrs.push_back(std::move(a));
  }
  return Schema(std::move(attrs));
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Attribute> attrs = attributes_;
  attrs.insert(attrs.end(), other.attributes_.begin(),
               other.attributes_.end());
  return Schema(std::move(attrs));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i].name;
    out += ": ";
    out += attributes_[i].type.name();
  }
  out += ")";
  return out;
}

void Schema::EncodeTo(std::string* out) const {
  PutFixed32(out, static_cast<uint32_t>(attributes_.size()));
  for (const auto& a : attributes_) {
    PutLengthPrefixed(out, a.name);
    PutFixed32(out, static_cast<uint32_t>(a.type.value_type()));
  }
}

Result<Schema> Schema::DecodeFrom(std::string_view* in) {
  uint32_t n;
  if (!GetFixed32(in, &n)) {
    return Status::Corruption("schema: truncated attribute count");
  }
  std::vector<Attribute> attrs;
  // Each attribute takes at least 8 bytes, so a hostile count cannot make
  // the reservation outgrow the input.
  attrs.reserve(std::min<size_t>(n, in->size() / 8));
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view name;
    uint32_t vt;
    if (!GetLengthPrefixed(in, &name) || !GetFixed32(in, &vt)) {
      return Status::Corruption("schema: truncated attribute");
    }
    if (vt > static_cast<uint32_t>(ValueType::kBool)) {
      return Status::Corruption("schema: unknown attribute type");
    }
    attrs.push_back(
        Attribute{std::string(name), Type(static_cast<ValueType>(vt))});
  }
  return Schema(std::move(attrs));
}

}  // namespace temporadb
