#include "value/random.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pbio::value {

namespace {

using arch::CType;
using arch::SpecField;
using arch::StructSpec;

std::uint64_t pick(std::mt19937_64& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng() % (hi - lo + 1);
}

/// Scalar C types eligible for random fields (strings/structs added
/// separately).
constexpr CType kScalarTypes[] = {
    CType::kChar,  CType::kSChar,    CType::kUChar, CType::kShort,
    CType::kUShort, CType::kInt,     CType::kUInt,  CType::kLong,
    CType::kULong, CType::kLongLong, CType::kULongLong,
    CType::kFloat, CType::kDouble,
};

CType random_scalar_type(std::mt19937_64& rng) {
  return kScalarTypes[rng() % std::size(kScalarTypes)];
}

std::string printable_string(std::mt19937_64& rng, std::size_t max_len) {
  const std::size_t n = rng() % (max_len + 1);
  std::string s(n, ' ');
  for (char& c : s) c = static_cast<char>('!' + rng() % 94);
  return s;
}

/// A value for one scalar of type `t`, constrained to survive conversion to
/// the *narrowest* representation of `t` on any modelled ABI.
Value random_scalar(CType t, std::mt19937_64& rng) {
  switch (t) {
    case CType::kChar:
    case CType::kUChar:
      return std::string(1, static_cast<char>('!' + rng() % 94));
    case CType::kSChar:
      return static_cast<std::int64_t>(rng() % 256) - 128;
    case CType::kShort:
      return static_cast<std::int64_t>(rng() % 65536) - 32768;
    case CType::kUShort:
      return static_cast<std::uint64_t>(rng() % 65536);
    case CType::kInt:
    case CType::kLong:  // long is 4 bytes on sparc_v8 / x86 / mips
      return static_cast<std::int64_t>(static_cast<std::int32_t>(rng()));
    case CType::kUInt:
    case CType::kULong:
      return static_cast<std::uint64_t>(static_cast<std::uint32_t>(rng()));
    case CType::kLongLong:
      return static_cast<std::int64_t>(rng());
    case CType::kULongLong:
      return static_cast<std::uint64_t>(rng());
    case CType::kFloat: {
      // Exact binary32 value: small integer scaled by a power of two.
      const auto m = static_cast<std::int32_t>(rng() % 65536) - 32768;
      const int e = static_cast<int>(rng() % 8);
      return static_cast<double>(static_cast<float>(m) / (1 << e));
    }
    case CType::kDouble: {
      const auto m = static_cast<std::int64_t>(rng() % 2000000) - 1000000;
      const int e = static_cast<int>(rng() % 16);
      return static_cast<double>(m) / (1 << e);
    }
    case CType::kString:
      return printable_string(rng, 24);
  }
  return Value();
}

}  // namespace

StructSpec random_spec(std::mt19937_64& rng, const RandomSpecOptions& opts) {
  StructSpec spec;
  spec.name = "rnd";
  // Optional subformats with scalar-only fields.
  std::size_t nsubs = 0;
  if (opts.allow_substructs) nsubs = rng() % 3;
  for (std::size_t s = 0; s < nsubs; ++s) {
    StructSpec sub;
    sub.name = "sub" + std::to_string(s);
    const std::size_t nf = 1 + rng() % 4;
    for (std::size_t i = 0; i < nf; ++i) {
      SpecField f;
      f.name = std::string("s")
                   .append(std::to_string(s))
                   .append("f")
                   .append(std::to_string(i));
      f.type = random_scalar_type(rng);
      if (rng() % 4 == 0) {
        f.array_elems = 1 + static_cast<std::uint32_t>(
                                rng() % opts.max_array_elems);
      }
      sub.fields.push_back(std::move(f));
    }
    spec.subs.push_back(std::move(sub));
  }

  const std::size_t nfields = static_cast<std::size_t>(
      pick(rng, opts.min_fields, opts.max_fields));
  for (std::size_t i = 0; i < nfields; ++i) {
    const std::string base_name = std::string("f").append(std::to_string(i));
    const std::uint64_t kind = rng() % 10;
    if (kind == 0 && opts.allow_strings) {
      SpecField f;
      f.name = base_name;
      f.type = CType::kString;
      spec.fields.push_back(std::move(f));
    } else if (kind == 1 && opts.allow_var_arrays) {
      // A count field followed by the variable array it sizes.
      SpecField count;
      count.name = base_name + "_n";
      count.type = CType::kUInt;
      spec.fields.push_back(count);
      SpecField arr;
      arr.name = base_name;
      arr.type = random_scalar_type(rng);
      if (arr.type == CType::kChar || arr.type == CType::kUChar ||
          arr.type == CType::kSChar) {
        arr.type = CType::kInt;  // keep var arrays numeric for simplicity
      }
      arr.var_dim_field = count.name;
      spec.fields.push_back(std::move(arr));
    } else if (kind == 2 && !spec.subs.empty()) {
      SpecField f;
      f.name = base_name;
      f.subformat = spec.subs[rng() % spec.subs.size()].name;
      if (rng() % 3 == 0) {
        f.array_elems =
            1 + static_cast<std::uint32_t>(rng() % 3);
      }
      spec.fields.push_back(std::move(f));
    } else {
      SpecField f;
      f.name = base_name;
      f.type = random_scalar_type(rng);
      if (rng() % 3 == 0) {
        f.array_elems = 1 + static_cast<std::uint32_t>(
                                rng() % opts.max_array_elems);
      }
      spec.fields.push_back(std::move(f));
    }
  }
  return spec;
}

namespace {

Record random_record_for(const StructSpec& spec,
                         const std::vector<StructSpec>& subs,
                         std::mt19937_64& rng);

Value random_field_value(const SpecField& f, const std::vector<StructSpec>& subs,
                         std::mt19937_64& rng, std::uint64_t var_count) {
  auto elem = [&]() -> Value {
    if (!f.subformat.empty()) {
      for (const StructSpec& s : subs) {
        if (s.name == f.subformat) return random_record_for(s, subs, rng);
      }
      throw PbioError("random_record: unknown subformat '" + f.subformat + "'");
    }
    return random_scalar(f.type, rng);
  };

  if (!f.var_dim_field.empty()) {
    Value::List list;
    list.reserve(static_cast<std::size_t>(var_count));
    for (std::uint64_t i = 0; i < var_count; ++i) list.push_back(elem());
    return list;
  }
  if (f.type == CType::kString && f.subformat.empty()) {
    return printable_string(rng, 24);
  }
  if (f.array_elems == 1) return elem();
  if ((f.type == CType::kChar || f.type == CType::kUChar) &&
      f.subformat.empty()) {
    // Char array: short printable string (strictly shorter than the slot so
    // NUL-trimmed read-back is lossless).
    return printable_string(rng, f.array_elems - 1);
  }
  Value::List list;
  list.reserve(f.array_elems);
  for (std::uint32_t i = 0; i < f.array_elems; ++i) list.push_back(elem());
  return list;
}

Record random_record_for(const StructSpec& spec,
                         const std::vector<StructSpec>& subs,
                         std::mt19937_64& rng) {
  Record rec;
  // Pre-pass: choose counts for var arrays and force their dim fields.
  std::vector<std::pair<std::string, std::uint64_t>> dims;
  for (const SpecField& f : spec.fields) {
    if (!f.var_dim_field.empty()) {
      dims.emplace_back(f.var_dim_field, rng() % 9);
    }
  }
  for (const SpecField& f : spec.fields) {
    std::uint64_t var_count = 0;
    bool is_dim = false;
    for (const auto& [dim_name, count] : dims) {
      if (f.name == dim_name) {
        rec.set(f.name, Value(static_cast<std::uint64_t>(count)));
        is_dim = true;
      }
    }
    if (is_dim) continue;
    if (!f.var_dim_field.empty()) {
      for (const auto& [dim_name, count] : dims) {
        if (dim_name == f.var_dim_field) var_count = count;
      }
    }
    rec.set(f.name, random_field_value(f, subs, rng, var_count));
  }
  return rec;
}

}  // namespace

Record random_record(const StructSpec& spec, std::mt19937_64& rng) {
  return random_record_for(spec, spec.subs, rng);
}

bool equivalent(const Value& a, const Value& b) {
  if (a.is_record() || b.is_record()) {
    return a.is_record() && b.is_record() &&
           equivalent(a.as_record(), b.as_record());
  }
  if (a.is_list() || b.is_list()) {
    if (!a.is_list() || !b.is_list()) return false;
    const auto& la = a.as_list();
    const auto& lb = b.as_list();
    if (la.size() != lb.size()) return false;
    for (std::size_t i = 0; i < la.size(); ++i) {
      if (!equivalent(la[i], lb[i])) return false;
    }
    return true;
  }
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() && a.as_string() == b.as_string();
  }
  if (a.is_null() && b.is_null()) return true;
  if (a.is_null() || b.is_null()) {
    // A null string vs an empty string compare equal (zero slot vs "").
    return false;
  }
  // Numeric: compare as doubles when either is float, else compare exact
  // two's-complement bits (signed/unsigned agnostic).
  if (a.is_float() || b.is_float()) {
    return a.as_double() == b.as_double();
  }
  return a.as_uint() == b.as_uint();
}

bool equivalent(const Record& a, const Record& b) {
  if (a.fields().size() != b.fields().size()) return false;
  for (const auto& [name, va] : a.fields()) {
    const Value* vb = b.find(name);
    if (vb == nullptr || !equivalent(va, *vb)) return false;
  }
  return true;
}

}  // namespace pbio::value
