#include "fmt/format.h"

#include <algorithm>
#include <sstream>

namespace pbio::fmt {

const char* to_string(BaseType t) {
  switch (t) {
    case BaseType::kInt:
      return "int";
    case BaseType::kUInt:
      return "uint";
    case BaseType::kFloat:
      return "float";
    case BaseType::kChar:
      return "char";
    case BaseType::kString:
      return "string";
    case BaseType::kStruct:
      return "struct";
  }
  return "?";
}

const FieldDesc* FormatDesc::find_field(std::string_view field_name) const {
  for (const FieldDesc& f : fields) {
    if (f.name == field_name) return &f;
  }
  return nullptr;
}

const FormatDesc* FormatDesc::find_subformat(std::string_view sub_name) const {
  for (const FormatDesc& s : subformats) {
    if (s.name == sub_name) return &s;
  }
  return nullptr;
}

bool FormatDesc::is_fixed_layout() const {
  for (const FieldDesc& f : fields) {
    if (f.is_variable()) return false;
  }
  return true;
}

namespace {

/// Rejects field `fd` of format `f`. The message is built here, on the
/// throwing branch only: validating a good format builds no strings.
[[noreturn]] void reject_field(const FormatDesc& f, const FieldDesc& fd,
                               std::string_view what) {
  std::string msg = "format '" + f.name + "' field '" + fd.name + "': ";
  msg += what;
  throw PbioError(msg);
}

void validate_fields(const FormatDesc& root, const FormatDesc& f,
                     bool is_subformat) {
  if (f.name.empty()) throw PbioError("format has empty name");
  if (f.fields.empty()) {
    throw PbioError("format '" + f.name + "' has no fields");
  }
  for (const FieldDesc& fd : f.fields) {
    if (fd.name.empty()) throw PbioError("format '" + f.name + "': empty field name");
    if (fd.slot_size == 0) reject_field(f, fd, "zero slot size");
    // 64-bit sum: offset + slot_size near UINT32_MAX must not wrap back
    // under fixed_size and slip through.
    if (std::uint64_t{fd.offset} + fd.slot_size > f.fixed_size) {
      reject_field(f, fd, "slot extends past fixed_size");
    }
    if (fd.is_variable()) {
      if (is_subformat) {
        reject_field(f, fd,
                     "variable-length fields are not supported inside "
                     "subformats");
      }
      if (fd.slot_size != root.pointer_size) {
        reject_field(f, fd, "variable field slot must be pointer-sized");
      }
    } else if (fd.base != BaseType::kStruct) {
      if (fd.elem_size == 0) reject_field(f, fd, "zero element size");
      if (fd.slot_size !=
          std::uint64_t{fd.elem_size} * fd.static_elems) {
        reject_field(f, fd, "slot size != elem_size * static_elems");
      }
    }
    if (fd.base == BaseType::kFloat && fd.elem_size != 4 && fd.elem_size != 8) {
      reject_field(f, fd, "float element size must be 4 or 8");
    }
    if (fd.base == BaseType::kChar && fd.elem_size != 1) {
      reject_field(f, fd, "char element size must be 1");
    }
    if (!fd.var_dim_field.empty()) {
      const FieldDesc* dim = f.find_field(fd.var_dim_field);
      if (dim == nullptr) {
        reject_field(f, fd,
                     "var-dim field '" + fd.var_dim_field + "' not found");
      }
      if (dim->base != BaseType::kInt && dim->base != BaseType::kUInt) {
        reject_field(f, fd, "var-dim field must be an integer");
      }
      if (dim->static_elems != 1 || dim->is_variable()) {
        reject_field(f, fd, "var-dim field must be a scalar integer");
      }
    }
    if (fd.base == BaseType::kStruct) {
      const FormatDesc* sub = root.find_subformat(fd.subformat);
      if (sub == nullptr) {
        reject_field(f, fd, "subformat '" + fd.subformat + "' not found");
      }
      if (fd.elem_size != sub->fixed_size) {
        reject_field(f, fd, "element size != subformat fixed size");
      }
      if (fd.var_dim_field.empty() &&
          fd.slot_size != fd.elem_size * fd.static_elems) {
        reject_field(f, fd, "struct slot size mismatch");
      }
    } else if (!fd.subformat.empty()) {
      reject_field(f, fd, "subformat set on non-struct field");
    }
  }
}

void validate_no_overlap(const FormatDesc& f) {
  // A per-thread buffer, so checking a valid format allocates nothing once
  // the thread has seen a format this wide.
  thread_local std::vector<const FieldDesc*> sorted;
  sorted.clear();
  for (const FieldDesc& fd : f.fields) sorted.push_back(&fd);
  std::sort(sorted.begin(), sorted.end(),
            [](const FieldDesc* a, const FieldDesc* b) {
              return a->offset < b->offset;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (std::uint64_t{sorted[i - 1]->offset} + sorted[i - 1]->slot_size >
        sorted[i]->offset) {
      throw PbioError("format '" + f.name + "': fields '" +
                      sorted[i - 1]->name + "' and '" + sorted[i]->name +
                      "' overlap");
    }
  }
}

}  // namespace

void FormatDesc::validate() const {
  validate_fields(*this, *this, /*is_subformat=*/false);
  validate_no_overlap(*this);
  for (const FormatDesc& sub : subformats) validate_no_overlap(sub);
  for (const FormatDesc& sub : subformats) {
    if (!sub.subformats.empty()) {
      throw PbioError("subformat '" + sub.name +
                      "' must not carry its own subformat list (kept flat at "
                      "the root)");
    }
    validate_fields(*this, sub, /*is_subformat=*/true);
  }
}

std::string describe(const FormatDesc& f) {
  std::ostringstream os;
  os << "format " << f.name << " (" << f.fixed_size << " bytes, "
     << pbio::to_string(f.byte_order) << "-endian";
  if (!f.arch_name.empty()) os << ", " << f.arch_name;
  os << ")\n";
  for (const FieldDesc& fd : f.fields) {
    os << "  @" << fd.offset << " " << fd.name << " : " << to_string(fd.base);
    if (fd.base == BaseType::kStruct) os << " " << fd.subformat;
    os << "[" << fd.elem_size << "B";
    if (fd.static_elems != 1) os << " x" << fd.static_elems;
    if (!fd.var_dim_field.empty()) os << " x<" << fd.var_dim_field << ">";
    os << "]\n";
  }
  for (const FormatDesc& sub : f.subformats) {
    os << "  sub" << describe(sub);
  }
  return os.str();
}

}  // namespace pbio::fmt
