#include "storage/schema.h"

#include <algorithm>

namespace sstore {

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Status Schema::ValidateTuple(const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " + std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i].is_null()) continue;
    ValueType declared = columns_[i].type;
    ValueType actual = tuple[i].type();
    if (actual != declared && !(IsIntLike(declared) && IsIntLike(actual))) {
      return Status::InvalidArgument(
          "column '" + columns_[i].name + "' expects " +
          ValueTypeToString(declared) + " but got " +
          ValueTypeToString(actual));
    }
  }
  return Status::OK();
}

void Schema::SerializeTo(ByteWriter* out) const {
  out->PutU32(static_cast<uint32_t>(columns_.size()));
  for (const Column& c : columns_) {
    out->PutString(c.name);
    out->PutU8(static_cast<uint8_t>(c.type));
  }
}

Result<Schema> Schema::DeserializeFrom(ByteReader* in) {
  SSTORE_ASSIGN_OR_RETURN(uint32_t n, in->GetU32());
  std::vector<Column> cols;
  cols.reserve(std::min<size_t>(n, in->remaining()));  // n is untrusted
  for (uint32_t i = 0; i < n; ++i) {
    SSTORE_ASSIGN_OR_RETURN(std::string name, in->GetString());
    SSTORE_ASSIGN_OR_RETURN(uint8_t type, in->GetU8());
    cols.push_back(Column{std::move(name), static_cast<ValueType>(type)});
  }
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += ValueTypeToString(columns_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace sstore
