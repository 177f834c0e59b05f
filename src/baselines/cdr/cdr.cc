#include "baselines/cdr/cdr.h"

#include "util/endian.h"

namespace pbio::cdr {

void Encoder::align(std::uint32_t n) {
  const std::size_t pos = out_.size() - stream_base_;
  const std::size_t rem = pos % n;
  if (rem != 0) out_.append_zeros(n - rem);
}

void Encoder::put_uint(std::uint64_t v, std::uint32_t size) {
  align(size);
  out_.append_uint(v, size, order_);
}

void Encoder::put_float(double v, std::uint32_t size) {
  align(size);
  out_.append_float(v, size, order_);
}

void Encoder::put_octets(const void* p, std::size_t n) {
  out_.append(p, n);
}

bool Decoder::get_uint(std::uint64_t* v, std::uint32_t size) {
  if (!in_.align_to(size)) return false;
  return in_.read_uint(v, size, order_);
}

bool Decoder::get_float(double* v, std::uint32_t size) {
  if (!in_.align_to(size)) return false;
  return in_.read_float(v, size, order_);
}

bool Decoder::get_octets(void* p, std::size_t n) {
  return in_.read_bytes(p, n);
}

namespace {

using fmt::BaseType;
using fmt::FieldDesc;
using fmt::FormatDesc;

Status encode_fields(const FormatDesc& root, const FormatDesc& f,
                     std::span<const std::uint8_t> whole,
                     const std::uint8_t* image, Encoder& enc) {
  const ByteOrder native = root.byte_order;
  for (const FieldDesc& fd : f.fields) {
    const std::uint8_t* slot = image + fd.offset;
    if (fd.base == BaseType::kString) {
      // CDR string: u32 length (including the terminating NUL) + bytes.
      const std::uint64_t off = load_uint(slot, root.pointer_size, native);
      const char* text = "";
      std::size_t len = 0;
      if (off != 0) {
        if (off >= whole.size()) {
          return Status(Errc::kMalformed, "cdr: string offset out of range");
        }
        const auto* start = whole.data() + off;
        const auto* nul = static_cast<const std::uint8_t*>(
            std::memchr(start, 0, whole.size() - off));
        if (nul == nullptr) {
          return Status(Errc::kMalformed, "cdr: unterminated string");
        }
        text = reinterpret_cast<const char*>(start);
        len = static_cast<std::size_t>(nul - start);
      }
      enc.put_uint(len + 1, 4);
      enc.put_octets(text, len);
      const char nul_byte = 0;
      enc.put_octets(&nul_byte, 1);
      continue;
    }
    if (!fd.var_dim_field.empty()) {
      // CDR sequence: u32 element count + elements. The count re-travels
      // with the sequence (as IDL requires) even though the dim field is
      // also a record member.
      const FieldDesc* dim = f.find_field(fd.var_dim_field);
      if (dim == nullptr) {
        return Status(Errc::kMalformed, "cdr: dangling var dim");
      }
      const std::uint64_t count =
          load_uint(image + dim->offset, dim->elem_size, native);
      const std::uint64_t off = load_uint(slot, root.pointer_size, native);
      enc.put_uint(count, 4);
      if (count == 0) continue;
      if (off == 0 || off + count * fd.elem_size > whole.size()) {
        return Status(Errc::kMalformed, "cdr: sequence out of range");
      }
      const std::uint8_t* elems = whole.data() + off;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint8_t* p = elems + i * fd.elem_size;
        if (fd.base == BaseType::kFloat) {
          enc.put_float(load_float(p, fd.elem_size, native), fd.elem_size);
        } else if (fd.base == BaseType::kStruct) {
          const FormatDesc* sub = root.find_subformat(fd.subformat);
          if (sub == nullptr) {
            return Status(Errc::kMalformed, "cdr: dangling subformat");
          }
          Status st = encode_fields(root, *sub, whole, p, enc);
          if (!st.is_ok()) return st;
        } else {
          enc.put_uint(load_uint(p, fd.elem_size, native), fd.elem_size);
        }
      }
      continue;
    }
    switch (fd.base) {
      case BaseType::kChar:
        enc.put_octets(slot, fd.static_elems);
        break;
      case BaseType::kInt:
      case BaseType::kUInt:
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          enc.put_uint(load_uint(slot + i * fd.elem_size, fd.elem_size, native),
                       fd.elem_size);
        }
        break;
      case BaseType::kFloat:
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          enc.put_float(
              load_float(slot + i * fd.elem_size, fd.elem_size, native),
              fd.elem_size);
        }
        break;
      case BaseType::kStruct: {
        const FormatDesc* sub = root.find_subformat(fd.subformat);
        if (sub == nullptr) {
          return Status(Errc::kMalformed, "cdr: dangling subformat");
        }
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          Status st = encode_fields(root, *sub, whole,
                                    slot + i * fd.elem_size, enc);
          if (!st.is_ok()) return st;
        }
        break;
      }
      default:
        return Status(Errc::kUnsupported, "cdr: unsupported base type");
    }
  }
  return Status::ok();
}

Status decode_fields(const FormatDesc& root, const FormatDesc& f,
                     Decoder& dec, std::uint8_t* root_image,
                     std::uint8_t* image, ByteBuffer* var) {
  const ByteOrder native = root.byte_order;
  for (const FieldDesc& fd : f.fields) {
    std::uint8_t* slot = image + fd.offset;
    if (fd.base == BaseType::kString) {
      if (var == nullptr) {
        return Status(Errc::kUnsupported,
                      "cdr: string decode needs a variable buffer");
      }
      std::uint64_t len = 0;  // includes the NUL
      if (!dec.get_uint(&len, 4) || len == 0 || len > (1u << 20)) {
        return Status(Errc::kTruncated, "cdr: bad string length");
      }
      const std::size_t at = var->size();
      var->resize(at + len);
      if (!dec.get_octets(var->data() + at, len)) {
        return Status(Errc::kTruncated, "cdr: short string");
      }
      store_uint(slot, root.fixed_size + at, root.pointer_size, native);
      continue;
    }
    if (!fd.var_dim_field.empty()) {
      if (var == nullptr) {
        return Status(Errc::kUnsupported,
                      "cdr: sequence decode needs a variable buffer");
      }
      std::uint64_t count = 0;
      if (!dec.get_uint(&count, 4) || count > (1u << 24)) {
        return Status(Errc::kTruncated, "cdr: bad sequence count");
      }
      if (count == 0) {
        std::memset(slot, 0, root.pointer_size);
        continue;
      }
      var->align_to(8);
      const std::size_t at = var->size();
      var->append_zeros(count * fd.elem_size);
      store_uint(slot, root.fixed_size + at, root.pointer_size, native);
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint8_t* p = var->data() + at + i * fd.elem_size;
        if (fd.base == BaseType::kFloat) {
          double v = 0;
          if (!dec.get_float(&v, fd.elem_size)) {
            return Status(Errc::kTruncated, "cdr: short sequence");
          }
          store_float(p, v, fd.elem_size, native);
        } else if (fd.base == BaseType::kStruct) {
          const FormatDesc* sub = root.find_subformat(fd.subformat);
          if (sub == nullptr) {
            return Status(Errc::kMalformed, "cdr: dangling subformat");
          }
          Status st = decode_fields(root, *sub, dec, root_image, p, var);
          if (!st.is_ok()) return st;
        } else {
          std::uint64_t v = 0;
          if (!dec.get_uint(&v, fd.elem_size)) {
            return Status(Errc::kTruncated, "cdr: short sequence");
          }
          store_uint(p, v, fd.elem_size, native);
        }
      }
      continue;
    }
    switch (fd.base) {
      case BaseType::kChar:
        if (!dec.get_octets(slot, fd.static_elems)) {
          return Status(Errc::kTruncated, "cdr: short stream");
        }
        break;
      case BaseType::kInt:
      case BaseType::kUInt:
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          std::uint64_t v = 0;
          if (!dec.get_uint(&v, fd.elem_size)) {
            return Status(Errc::kTruncated, "cdr: short stream");
          }
          store_uint(slot + i * fd.elem_size, v, fd.elem_size, native);
        }
        break;
      case BaseType::kFloat:
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          double v = 0;
          if (!dec.get_float(&v, fd.elem_size)) {
            return Status(Errc::kTruncated, "cdr: short stream");
          }
          store_float(slot + i * fd.elem_size, v, fd.elem_size, native);
        }
        break;
      case BaseType::kStruct: {
        const FormatDesc* sub = root.find_subformat(fd.subformat);
        if (sub == nullptr) {
          return Status(Errc::kMalformed, "cdr: dangling subformat");
        }
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          Status st = decode_fields(root, *sub, dec, root_image,
                                    slot + i * fd.elem_size, var);
          if (!st.is_ok()) return st;
        }
        break;
      }
      default:
        return Status(Errc::kUnsupported, "cdr: unsupported base type");
    }
  }
  return Status::ok();
}

std::size_t size_fields(const FormatDesc& root, const FormatDesc& f,
                        std::size_t at) {
  auto align = [&at](std::size_t n) { at = (at + n - 1) / n * n; };
  for (const FieldDesc& fd : f.fields) {
    switch (fd.base) {
      case BaseType::kChar:
        at += fd.static_elems;
        break;
      case BaseType::kStruct: {
        const FormatDesc* sub = root.find_subformat(fd.subformat);
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          at = size_fields(root, *sub, at);
        }
        break;
      }
      default:
        for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
          align(fd.elem_size);
          at += fd.elem_size;
        }
        break;
    }
  }
  return at;
}

}  // namespace

Status encode_record(const FormatDesc& f, std::span<const std::uint8_t> image,
                     Encoder& enc) {
  if (image.size() < f.fixed_size) {
    return Status(Errc::kTruncated, "cdr: image smaller than record");
  }
  return encode_fields(f, f, image, image.data(), enc);
}

Status decode_record(const FormatDesc& f, Decoder& dec,
                     std::span<std::uint8_t> image, ByteBuffer* var) {
  if (image.size() < f.fixed_size) {
    return Status(Errc::kTruncated, "cdr: image smaller than record");
  }
  return decode_fields(f, f, dec, image.data(), image.data(), var);
}

std::size_t encoded_size(const fmt::FormatDesc& f) {
  return size_fields(f, f, 0);
}

}  // namespace pbio::cdr
