#include "adios/var.h"

namespace flexio::adios {

Status VarMeta::validate() const {
  if (name.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "variable needs a name");
  }
  if (serial::size_of(type) == 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "variables must use fixed-size element types: " + name);
  }
  switch (shape) {
    case ShapeKind::kScalar:
      if (!global_dims.empty() || !block.offset.empty()) {
        return make_error(ErrorCode::kInvalidArgument,
                          "scalar with dims: " + name);
      }
      return Status::ok();
    case ShapeKind::kLocalArray: {
      if (!block.valid() || block.ndim() == 0) {
        return make_error(ErrorCode::kInvalidArgument,
                          "local array needs a block: " + name);
      }
      for (std::uint64_t o : block.offset) {
        if (o != 0) {
          return make_error(ErrorCode::kInvalidArgument,
                            "local array offsets must be zero: " + name);
        }
      }
      return Status::ok();
    }
    case ShapeKind::kGlobalArray: {
      if (!block.valid() || block.ndim() != global_dims.size() ||
          global_dims.empty()) {
        return make_error(ErrorCode::kInvalidArgument,
                          "global array dims mismatch: " + name);
      }
      Box global{Dims(global_dims.size(), 0), global_dims};
      if (!contains(global, block)) {
        return make_error(ErrorCode::kOutOfRange,
                          "block outside global space: " + name);
      }
      return Status::ok();
    }
  }
  return make_error(ErrorCode::kInternal, "bad shape kind");
}

void VarMeta::encode(serial::BufWriter* w) const {
  w->put_string(name);
  w->put_u8(static_cast<std::uint8_t>(type));
  w->put_u8(static_cast<std::uint8_t>(shape));
  w->put_varint(global_dims.size());
  for (std::uint64_t d : global_dims) w->put_varint(d);
  w->put_varint(block.offset.size());
  for (std::uint64_t o : block.offset) w->put_varint(o);
  for (std::uint64_t c : block.count) w->put_varint(c);
}

StatusOr<VarMeta> VarMeta::decode(serial::BufReader* r) {
  VarMeta m;
  FLEXIO_RETURN_IF_ERROR(r->get_string(&m.name));
  std::uint8_t type = 0, shape = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_u8(&type));
  FLEXIO_RETURN_IF_ERROR(r->get_u8(&shape));
  if (type > static_cast<std::uint8_t>(serial::DataType::kBytes) ||
      shape > static_cast<std::uint8_t>(ShapeKind::kGlobalArray)) {
    return make_error(ErrorCode::kInvalidArgument, "bad var meta tags");
  }
  m.type = static_cast<serial::DataType>(type);
  m.shape = static_cast<ShapeKind>(shape);
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_count(&n));
  m.global_dims.resize(n);
  for (auto& d : m.global_dims) FLEXIO_RETURN_IF_ERROR(r->get_varint(&d));
  FLEXIO_RETURN_IF_ERROR(r->get_count(&n));
  m.block.offset.resize(n);
  m.block.count.resize(n);
  for (auto& o : m.block.offset) FLEXIO_RETURN_IF_ERROR(r->get_varint(&o));
  for (auto& c : m.block.count) FLEXIO_RETURN_IF_ERROR(r->get_varint(&c));
  FLEXIO_RETURN_IF_ERROR(m.validate());
  return m;
}

VarMeta scalar_var(std::string name, serial::DataType type) {
  VarMeta m;
  m.name = std::move(name);
  m.type = type;
  m.shape = ShapeKind::kScalar;
  return m;
}

VarMeta local_array_var(std::string name, serial::DataType type, Dims count) {
  VarMeta m;
  m.name = std::move(name);
  m.type = type;
  m.shape = ShapeKind::kLocalArray;
  m.block.offset.assign(count.size(), 0);
  m.block.count = std::move(count);
  return m;
}

VarMeta global_array_var(std::string name, serial::DataType type,
                         Dims global_dims, Box block) {
  VarMeta m;
  m.name = std::move(name);
  m.type = type;
  m.shape = ShapeKind::kGlobalArray;
  m.global_dims = std::move(global_dims);
  m.block = std::move(block);
  return m;
}

}  // namespace flexio::adios
