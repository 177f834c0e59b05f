#include "baselines/mpilite/datatype.h"

#include <algorithm>

#include "util/error.h"

namespace pbio::mpilite {

std::uint32_t native_size(Basic b, const arch::Abi& abi) {
  using arch::CType;
  switch (b) {
    case Basic::kChar:
    case Basic::kUChar:
      return 1;
    case Basic::kShort:
    case Basic::kUShort:
      return abi.size_of(CType::kShort);
    case Basic::kInt:
    case Basic::kUInt:
      return abi.size_of(CType::kInt);
    case Basic::kLong:
    case Basic::kULong:
      return abi.size_of(CType::kLong);
    case Basic::kLongLong:
    case Basic::kULongLong:
      return abi.size_of(CType::kLongLong);
    case Basic::kFloat:
      return 4;
    case Basic::kDouble:
      return 8;
  }
  throw PbioError("mpilite: bad basic type");
}

std::uint32_t canonical_size(Basic b) {
  switch (b) {
    case Basic::kChar:
    case Basic::kUChar:
      return 1;
    case Basic::kShort:
    case Basic::kUShort:
      return 2;
    case Basic::kInt:
    case Basic::kUInt:
    case Basic::kLong:   // external32: long is 4 bytes
    case Basic::kULong:
    case Basic::kFloat:
      return 4;
    case Basic::kLongLong:
    case Basic::kULongLong:
    case Basic::kDouble:
      return 8;
  }
  throw PbioError("mpilite: bad basic type");
}

bool is_signed(Basic b) {
  switch (b) {
    case Basic::kChar:
    case Basic::kShort:
    case Basic::kInt:
    case Basic::kLong:
    case Basic::kLongLong:
      return true;
    default:
      return false;
  }
}

bool is_float(Basic b) { return b == Basic::kFloat || b == Basic::kDouble; }

Datatype Datatype::basic(Basic b, const arch::Abi& abi) {
  Datatype t;
  t.map_ = {{b, 0}};
  t.extent_ = native_size(b, abi);
  t.packed_size_ = canonical_size(b);
  t.abi_ = &abi;
  return t;
}

Datatype Datatype::contiguous(std::uint32_t count, const Datatype& inner) {
  Datatype t;
  t.abi_ = inner.abi_;
  t.extent_ = inner.extent_ * count;
  t.packed_size_ = inner.packed_size_ * count;
  t.map_.reserve(inner.map_.size() * count);
  for (std::uint32_t i = 0; i < count; ++i) {
    for (const TypeEntry& e : inner.map_) {
      t.map_.push_back({e.kind, e.offset + i * inner.extent_});
    }
  }
  return t;
}

Datatype Datatype::vector(std::uint32_t count, std::uint32_t blocklen,
                          std::uint32_t stride, const Datatype& inner) {
  Datatype t;
  t.abi_ = inner.abi_;
  t.extent_ =
      (static_cast<std::uint64_t>(count - 1) * stride + blocklen) *
      inner.extent_;
  t.packed_size_ =
      static_cast<std::uint64_t>(count) * blocklen * inner.packed_size_;
  t.map_.reserve(static_cast<std::size_t>(count) * blocklen *
                 inner.map_.size());
  for (std::uint32_t c = 0; c < count; ++c) {
    const std::uint64_t block_base =
        static_cast<std::uint64_t>(c) * stride * inner.extent_;
    for (std::uint32_t b = 0; b < blocklen; ++b) {
      for (const TypeEntry& e : inner.map_) {
        t.map_.push_back({e.kind, block_base + b * inner.extent_ + e.offset});
      }
    }
  }
  return t;
}

Datatype Datatype::hvector(std::uint32_t count, std::uint32_t blocklen,
                           std::uint64_t stride_bytes, const Datatype& inner) {
  Datatype t;
  t.abi_ = inner.abi_;
  t.extent_ = static_cast<std::uint64_t>(count - 1) * stride_bytes +
              static_cast<std::uint64_t>(blocklen) * inner.extent_;
  t.packed_size_ =
      static_cast<std::uint64_t>(count) * blocklen * inner.packed_size_;
  t.map_.reserve(static_cast<std::size_t>(count) * blocklen *
                 inner.map_.size());
  for (std::uint32_t c = 0; c < count; ++c) {
    const std::uint64_t block_base = c * stride_bytes;
    for (std::uint32_t b = 0; b < blocklen; ++b) {
      for (const TypeEntry& e : inner.map_) {
        t.map_.push_back({e.kind, block_base + b * inner.extent_ + e.offset});
      }
    }
  }
  return t;
}

Datatype Datatype::indexed(std::span<const IndexBlock> blocks,
                           const Datatype& inner) {
  if (blocks.empty()) throw PbioError("mpilite: empty indexed datatype");
  Datatype t;
  t.abi_ = inner.abi_;
  for (const IndexBlock& b : blocks) {
    const std::uint64_t end =
        (b.displacement + b.blocklen) * inner.extent_;
    t.extent_ = std::max(t.extent_, end);
    t.packed_size_ += static_cast<std::uint64_t>(b.blocklen) *
                      inner.packed_size_;
    for (std::uint32_t i = 0; i < b.blocklen; ++i) {
      for (const TypeEntry& e : inner.map_) {
        t.map_.push_back(
            {e.kind, (b.displacement + i) * inner.extent_ + e.offset});
      }
    }
  }
  return t;
}

Datatype Datatype::resized(const Datatype& inner, std::uint64_t new_extent) {
  Datatype t = inner;
  t.extent_ = new_extent;
  return t;
}

Datatype Datatype::create_struct(std::vector<Block> blocks,
                                 std::uint64_t extent) {
  if (blocks.empty()) throw PbioError("mpilite: empty struct datatype");
  Datatype t;
  t.abi_ = blocks.front().type->abi_;
  t.extent_ = extent;
  for (const Block& b : blocks) {
    t.packed_size_ += static_cast<std::uint64_t>(b.count) *
                      b.type->packed_size_;
    for (std::uint32_t i = 0; i < b.count; ++i) {
      for (const TypeEntry& e : b.type->map_) {
        t.map_.push_back(
            {e.kind, b.displacement + i * b.type->extent_ + e.offset});
      }
    }
  }
  return t;
}

Datatype datatype_for(const fmt::FormatDesc& f) {
  const arch::Abi* abi = arch::find_abi(f.arch_name);
  if (abi == nullptr) {
    throw PbioError("datatype_for: format has no known ABI: " + f.arch_name);
  }

  // Basic kind for an atomic field under this ABI.
  auto basic_kind = [&](const fmt::FieldDesc& fd) -> Basic {
    switch (fd.base) {
      case fmt::BaseType::kChar:
        return Basic::kChar;
      case fmt::BaseType::kFloat:
        return fd.elem_size == 4 ? Basic::kFloat : Basic::kDouble;
      case fmt::BaseType::kInt:
        switch (fd.elem_size) {
          case 1:
            return Basic::kChar;
          case 2:
            return Basic::kShort;
          case 4:
            return Basic::kInt;
          default:
            return Basic::kLongLong;
        }
      case fmt::BaseType::kUInt:
        switch (fd.elem_size) {
          case 1:
            return Basic::kUChar;
          case 2:
            return Basic::kUShort;
          case 4:
            return Basic::kUInt;
          default:
            return Basic::kULongLong;
        }
      default:
        throw PbioError("datatype_for: unsupported field type");
    }
  };

  std::vector<Datatype> element_types;  // keep alive for Block pointers
  std::vector<Datatype::Block> blocks;
  element_types.reserve(f.fields.size());
  for (const fmt::FieldDesc& fd : f.fields) {
    if (fd.is_variable()) {
      throw PbioError("datatype_for: variable fields unsupported");
    }
    if (fd.base == fmt::BaseType::kStruct) {
      const fmt::FormatDesc* sub = f.find_subformat(fd.subformat);
      fmt::FormatDesc sub_with_arch = *sub;
      sub_with_arch.arch_name = f.arch_name;
      element_types.push_back(datatype_for(sub_with_arch));
    } else {
      element_types.push_back(Datatype::basic(basic_kind(fd), *abi));
    }
  }
  for (std::size_t i = 0; i < f.fields.size(); ++i) {
    blocks.push_back(
        {f.fields[i].static_elems, f.fields[i].offset, &element_types[i]});
  }
  return Datatype::create_struct(std::move(blocks), f.fixed_size);
}

}  // namespace pbio::mpilite
