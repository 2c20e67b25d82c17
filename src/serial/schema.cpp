#include "serial/schema.h"

namespace flexio::serial {

std::size_t size_of(DataType t) {
  switch (t) {
    case DataType::kInt8:
    case DataType::kUInt8: return 1;
    case DataType::kInt16:
    case DataType::kUInt16: return 2;
    case DataType::kInt32:
    case DataType::kUInt32:
    case DataType::kFloat: return 4;
    case DataType::kInt64:
    case DataType::kUInt64:
    case DataType::kDouble: return 8;
    case DataType::kString:
    case DataType::kBytes: return 0;
  }
  return 0;
}

StatusOr<DataType> parse_datatype(std::string_view name) {
  if (name == "int8" || name == "byte") return DataType::kInt8;
  if (name == "int16" || name == "short") return DataType::kInt16;
  if (name == "int32" || name == "int" || name == "integer")
    return DataType::kInt32;
  if (name == "int64" || name == "long") return DataType::kInt64;
  if (name == "uint8" || name == "unsigned byte") return DataType::kUInt8;
  if (name == "uint16") return DataType::kUInt16;
  if (name == "uint32" || name == "unsigned integer") return DataType::kUInt32;
  if (name == "uint64" || name == "unsigned long") return DataType::kUInt64;
  if (name == "float" || name == "real") return DataType::kFloat;
  if (name == "double") return DataType::kDouble;
  if (name == "string") return DataType::kString;
  if (name == "bytes") return DataType::kBytes;
  return make_error(ErrorCode::kInvalidArgument,
                    "unknown data type: " + std::string(name));
}

std::string_view datatype_name(DataType t) {
  switch (t) {
    case DataType::kInt8: return "int8";
    case DataType::kInt16: return "int16";
    case DataType::kInt32: return "int32";
    case DataType::kInt64: return "int64";
    case DataType::kUInt8: return "uint8";
    case DataType::kUInt16: return "uint16";
    case DataType::kUInt32: return "uint32";
    case DataType::kUInt64: return "uint64";
    case DataType::kFloat: return "float";
    case DataType::kDouble: return "double";
    case DataType::kString: return "string";
    case DataType::kBytes: return "bytes";
  }
  return "unknown";
}

Schema::Schema(std::string name, std::vector<FieldDesc> fields)
    : name_(std::move(name)), fields_(std::move(fields)) {}

int Schema::field_index(std::string_view field_name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == field_name) return static_cast<int>(i);
  }
  return -1;
}

std::uint64_t Schema::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // field separator
    h *= 0x100000001b3ULL;
  };
  mix(name_);
  for (const auto& f : fields_) {
    mix(f.name);
    mix(datatype_name(f.type));
    mix(f.is_array ? "[]" : "");
  }
  return h;
}

void Schema::encode(BufWriter* w) const {
  w->put_string(name_);
  w->put_varint(fields_.size());
  for (const auto& f : fields_) {
    w->put_string(f.name);
    w->put_u8(static_cast<std::uint8_t>(f.type));
    w->put_u8(f.is_array ? 1 : 0);
  }
}

StatusOr<Schema> Schema::decode(BufReader* r) {
  std::string name;
  FLEXIO_RETURN_IF_ERROR(r->get_string(&name));
  std::uint64_t count = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_count(&count));
  std::vector<FieldDesc> fields;
  fields.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FieldDesc f;
    FLEXIO_RETURN_IF_ERROR(r->get_string(&f.name));
    std::uint8_t type = 0;
    FLEXIO_RETURN_IF_ERROR(r->get_u8(&type));
    if (type > static_cast<std::uint8_t>(DataType::kBytes)) {
      return make_error(ErrorCode::kInvalidArgument, "bad field type tag");
    }
    f.type = static_cast<DataType>(type);
    std::uint8_t is_array = 0;
    FLEXIO_RETURN_IF_ERROR(r->get_u8(&is_array));
    f.is_array = is_array != 0;
    fields.push_back(std::move(f));
  }
  return Schema(std::move(name), std::move(fields));
}

Record::Record(const Schema* schema) : schema_(schema) {
  FLEXIO_CHECK(schema != nullptr);
  values_.resize(schema->fields().size());
  // Default-initialize values to the field's natural empty value.
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const FieldDesc& f = schema->fields()[i];
    if (f.is_array) {
      if (f.type == DataType::kDouble || f.type == DataType::kFloat) {
        values_[i] = std::vector<double>{};
      } else if (f.type == DataType::kBytes) {
        values_[i] = std::vector<std::byte>{};
      } else {
        values_[i] = std::vector<std::int64_t>{};
      }
    } else {
      switch (f.type) {
        case DataType::kFloat:
        case DataType::kDouble: values_[i] = 0.0; break;
        case DataType::kString: values_[i] = std::string{}; break;
        case DataType::kBytes: values_[i] = std::vector<std::byte>{}; break;
        case DataType::kUInt8:
        case DataType::kUInt16:
        case DataType::kUInt32:
        case DataType::kUInt64: values_[i] = std::uint64_t{0}; break;
        default: values_[i] = std::int64_t{0}; break;
      }
    }
  }
}

namespace {

/// Does this in-memory Value shape match the declared field?
bool value_matches(const FieldDesc& f, const Value& v) {
  if (f.is_array) {
    if (f.type == DataType::kDouble || f.type == DataType::kFloat) {
      return std::holds_alternative<std::vector<double>>(v);
    }
    if (f.type == DataType::kBytes) {
      return std::holds_alternative<std::vector<std::byte>>(v);
    }
    return std::holds_alternative<std::vector<std::int64_t>>(v);
  }
  switch (f.type) {
    case DataType::kFloat:
    case DataType::kDouble: return std::holds_alternative<double>(v);
    case DataType::kString: return std::holds_alternative<std::string>(v);
    case DataType::kBytes:
      return std::holds_alternative<std::vector<std::byte>>(v);
    case DataType::kUInt8:
    case DataType::kUInt16:
    case DataType::kUInt32:
    case DataType::kUInt64:
      return std::holds_alternative<std::uint64_t>(v) ||
             std::holds_alternative<std::int64_t>(v);
    default:
      return std::holds_alternative<std::int64_t>(v) ||
             std::holds_alternative<std::uint64_t>(v);
  }
}

std::uint64_t to_u64(const Value& v) {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return *u;
  return static_cast<std::uint64_t>(std::get<std::int64_t>(v));
}

void encode_scalar(DataType t, const Value& v, BufWriter* w) {
  switch (t) {
    case DataType::kInt8:
    case DataType::kUInt8: w->put_u8(static_cast<std::uint8_t>(to_u64(v))); break;
    case DataType::kInt16:
    case DataType::kUInt16:
      w->put_u16(static_cast<std::uint16_t>(to_u64(v)));
      break;
    case DataType::kInt32:
    case DataType::kUInt32:
      w->put_u32(static_cast<std::uint32_t>(to_u64(v)));
      break;
    case DataType::kInt64:
    case DataType::kUInt64: w->put_u64(to_u64(v)); break;
    case DataType::kFloat: {
      const float f = static_cast<float>(std::get<double>(v));
      w->put_raw(&f, sizeof f);
      break;
    }
    case DataType::kDouble: w->put_f64(std::get<double>(v)); break;
    case DataType::kString: w->put_string(std::get<std::string>(v)); break;
    case DataType::kBytes:
      w->put_bytes(ByteView(std::get<std::vector<std::byte>>(v)));
      break;
  }
}

Status decode_scalar(DataType t, BufReader* r, Value* out) {
  switch (t) {
    case DataType::kInt8: {
      std::uint8_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u8(&v));
      *out = static_cast<std::int64_t>(static_cast<std::int8_t>(v));
      return Status::ok();
    }
    case DataType::kUInt8: {
      std::uint8_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u8(&v));
      *out = static_cast<std::uint64_t>(v);
      return Status::ok();
    }
    case DataType::kInt16: {
      std::uint16_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u16(&v));
      *out = static_cast<std::int64_t>(static_cast<std::int16_t>(v));
      return Status::ok();
    }
    case DataType::kUInt16: {
      std::uint16_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u16(&v));
      *out = static_cast<std::uint64_t>(v);
      return Status::ok();
    }
    case DataType::kInt32: {
      std::uint32_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u32(&v));
      *out = static_cast<std::int64_t>(static_cast<std::int32_t>(v));
      return Status::ok();
    }
    case DataType::kUInt32: {
      std::uint32_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u32(&v));
      *out = static_cast<std::uint64_t>(v);
      return Status::ok();
    }
    case DataType::kInt64: {
      std::int64_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_i64(&v));
      *out = v;
      return Status::ok();
    }
    case DataType::kUInt64: {
      std::uint64_t v = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_u64(&v));
      *out = v;
      return Status::ok();
    }
    case DataType::kFloat: {
      float f = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_raw(&f, sizeof f));
      *out = static_cast<double>(f);
      return Status::ok();
    }
    case DataType::kDouble: {
      double d = 0;
      FLEXIO_RETURN_IF_ERROR(r->get_f64(&d));
      *out = d;
      return Status::ok();
    }
    case DataType::kString: {
      std::string s;
      FLEXIO_RETURN_IF_ERROR(r->get_string(&s));
      *out = std::move(s);
      return Status::ok();
    }
    case DataType::kBytes: {
      ByteView bytes;
      FLEXIO_RETURN_IF_ERROR(r->get_bytes(&bytes));
      *out = std::vector<std::byte>(bytes.begin(), bytes.end());
      return Status::ok();
    }
  }
  return make_error(ErrorCode::kInternal, "bad type in decode_scalar");
}

}  // namespace

Status Record::set(std::string_view field, Value value) {
  const int idx = schema_->field_index(field);
  FLEXIO_CHECK(idx >= 0);
  const FieldDesc& f = schema_->fields()[static_cast<std::size_t>(idx)];
  if (!value_matches(f, value)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "type mismatch for field: " + std::string(field));
  }
  values_[static_cast<std::size_t>(idx)] = std::move(value);
  return Status::ok();
}

const Value& Record::get(std::string_view field) const {
  const int idx = schema_->field_index(field);
  FLEXIO_CHECK(idx >= 0);
  return values_[static_cast<std::size_t>(idx)];
}

StatusOr<std::int64_t> Record::get_int(std::string_view field) const {
  const Value& v = get(field);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<std::int64_t>(*u);
  }
  return make_error(ErrorCode::kInvalidArgument,
                    "field is not integral: " + std::string(field));
}

StatusOr<double> Record::get_double(std::string_view field) const {
  const Value& v = get(field);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  return make_error(ErrorCode::kInvalidArgument,
                    "field is not floating: " + std::string(field));
}

StatusOr<std::string> Record::get_string(std::string_view field) const {
  const Value& v = get(field);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  return make_error(ErrorCode::kInvalidArgument,
                    "field is not string: " + std::string(field));
}

void Record::encode(BufWriter* w) const {
  w->put_u64(schema_->fingerprint());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const FieldDesc& f = schema_->fields()[i];
    const Value& v = values_[i];
    if (!f.is_array) {
      encode_scalar(f.type, v, w);
      continue;
    }
    if (f.type == DataType::kBytes) {
      w->put_bytes(ByteView(std::get<std::vector<std::byte>>(v)));
    } else if (f.type == DataType::kDouble || f.type == DataType::kFloat) {
      const auto& arr = std::get<std::vector<double>>(v);
      w->put_varint(arr.size());
      for (double d : arr) encode_scalar(f.type, Value(d), w);
    } else {
      const auto& arr = std::get<std::vector<std::int64_t>>(v);
      w->put_varint(arr.size());
      for (std::int64_t x : arr) encode_scalar(f.type, Value(x), w);
    }
  }
}

StatusOr<Record> Record::decode(const Schema& schema, BufReader* r) {
  std::uint64_t fp = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_u64(&fp));
  if (fp != schema.fingerprint()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "schema fingerprint mismatch for " + schema.name());
  }
  Record rec(&schema);
  for (std::size_t i = 0; i < schema.fields().size(); ++i) {
    const FieldDesc& f = schema.fields()[i];
    if (!f.is_array) {
      Value v;
      FLEXIO_RETURN_IF_ERROR(decode_scalar(f.type, r, &v));
      rec.values_[i] = std::move(v);
      continue;
    }
    if (f.type == DataType::kBytes) {
      ByteView bytes;
      FLEXIO_RETURN_IF_ERROR(r->get_bytes(&bytes));
      rec.values_[i] = std::vector<std::byte>(bytes.begin(), bytes.end());
      continue;
    }
    std::uint64_t n = 0;
    FLEXIO_RETURN_IF_ERROR(r->get_count(&n));
    if (f.type == DataType::kDouble || f.type == DataType::kFloat) {
      std::vector<double> arr;
      arr.reserve(n);
      for (std::uint64_t k = 0; k < n; ++k) {
        Value v;
        FLEXIO_RETURN_IF_ERROR(decode_scalar(f.type, r, &v));
        arr.push_back(std::get<double>(v));
      }
      rec.values_[i] = std::move(arr);
    } else {
      std::vector<std::int64_t> arr;
      arr.reserve(n);
      for (std::uint64_t k = 0; k < n; ++k) {
        Value v;
        FLEXIO_RETURN_IF_ERROR(decode_scalar(f.type, r, &v));
        if (const auto* u = std::get_if<std::uint64_t>(&v)) {
          arr.push_back(static_cast<std::int64_t>(*u));
        } else {
          arr.push_back(std::get<std::int64_t>(v));
        }
      }
      rec.values_[i] = std::move(arr);
    }
  }
  return rec;
}

}  // namespace flexio::serial
