#include "storage/tuple.h"

#include <algorithm>

#include "common/coding.h"
#include "common/strings.h"

namespace temporadb {
namespace tuple_codec {

namespace {

void EncodeOne(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutFixed64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueType::kFloat: {
      double d = v.AsFloat();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      PutFixed64(out, bits);
      break;
    }
    case ValueType::kString:
      PutLengthPrefixed(out, v.AsString());
      break;
    case ValueType::kDate:
      PutFixed64(out, static_cast<uint64_t>(v.AsDate().chronon().days()));
      break;
    case ValueType::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
  }
}

Result<Value> DecodeOne(std::string_view* in) {
  if (in->empty()) return Status::Corruption("tuple: truncated type tag");
  ValueType tag = static_cast<ValueType>((*in)[0]);
  in->remove_prefix(1);
  switch (tag) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      uint64_t bits;
      if (!GetFixed64(in, &bits)) return Status::Corruption("tuple: int");
      return Value(static_cast<int64_t>(bits));
    }
    case ValueType::kFloat: {
      uint64_t bits;
      if (!GetFixed64(in, &bits)) return Status::Corruption("tuple: float");
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case ValueType::kString: {
      std::string_view s;
      if (!GetLengthPrefixed(in, &s)) return Status::Corruption("tuple: str");
      return Value(std::string(s));
    }
    case ValueType::kDate: {
      uint64_t bits;
      if (!GetFixed64(in, &bits)) return Status::Corruption("tuple: date");
      return Value(Date(Chronon(static_cast<int64_t>(bits))));
    }
    case ValueType::kBool: {
      if (in->empty()) return Status::Corruption("tuple: bool");
      bool b = (*in)[0] != 0;
      in->remove_prefix(1);
      return Value(b);
    }
  }
  return Status::Corruption(StringPrintf("tuple: unknown type tag %d",
                                         static_cast<int>(tag)));
}

}  // namespace

Status EncodeValues(const Schema& schema, const std::vector<Value>& values,
                    std::string* out) {
  if (values.size() != schema.size()) {
    return Status::InvalidArgument(StringPrintf(
        "tuple arity %zu does not match schema arity %zu", values.size(),
        schema.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!schema.at(i).type.Admits(values[i])) {
      return Status::InvalidArgument(StringPrintf(
          "attribute '%s' does not admit a %s value",
          schema.at(i).name.c_str(),
          std::string(ValueTypeName(values[i].type())).c_str()));
    }
  }
  EncodeValuesUnchecked(values, out);
  return Status::OK();
}

void EncodeValuesUnchecked(const std::vector<Value>& values,
                           std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) EncodeOne(v, out);
}

Result<std::vector<Value>> DecodeValues(std::string_view* in) {
  uint32_t n;
  if (!GetFixed32(in, &n)) return Status::Corruption("tuple: truncated arity");
  std::vector<Value> values;
  // Every value takes at least its tag byte: a hostile arity cannot make
  // the reservation outgrow the input.
  values.reserve(std::min<size_t>(n, in->size()));
  for (uint32_t i = 0; i < n; ++i) {
    TDB_ASSIGN_OR_RETURN(Value v, DecodeOne(in));
    values.push_back(std::move(v));
  }
  return values;
}

}  // namespace tuple_codec
}  // namespace temporadb
