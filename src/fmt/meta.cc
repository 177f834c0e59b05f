#include "fmt/meta.h"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "util/hash.h"

namespace pbio::fmt {

namespace {

constexpr std::uint8_t kMetaVersion = 1;
constexpr ByteOrder kMetaOrder = ByteOrder::kLittle;
constexpr std::size_t kMaxName = 4096;
constexpr std::size_t kMaxFields = 65535;

/// The meta writer emits through a sink: a ByteBuffer for the wire, or a
/// running FNV-1a for the two format hashes, which fold the very same bytes
/// in the same order without materializing them.
struct FnvSink {
  std::uint64_t h;
  void append(const void* p, std::size_t n) { h = fnv1a(p, n, h); }
};

template <typename Sink>
void put_uint(Sink& out, std::uint64_t v, std::size_t width) {
  std::uint8_t bytes[8];
  store_uint(bytes, v, width, kMetaOrder);
  out.append(bytes, width);
}

template <typename Sink>
void put_str(Sink& out, std::string_view s) {
  put_uint(out, s.size(), 2);
  out.append(s.data(), s.size());
}

WIRE_TAINTED bool get_str(ByteReader& in, std::string* out) {
  std::uint64_t n = 0;
  if (!in.read_uint(&n, 2, kMetaOrder)) return false;
  if (n > kMaxName || in.remaining() < n) return false;
  out->assign(reinterpret_cast<const char*>(in.cursor()),
              static_cast<std::size_t>(n));
  return in.skip(static_cast<std::size_t>(n));
}

/// One format's record: its fields in declaration order, or in `order`
/// when that is non-empty.
template <typename Sink>
void encode_one(Sink& out, const FormatDesc& f, std::string_view arch_name,
                std::span<const std::uint32_t> order) {
  put_str(out, f.name);
  put_uint(out, static_cast<std::uint8_t>(f.byte_order), 1);
  put_uint(out, f.pointer_size, 1);
  put_uint(out, f.fixed_size, 4);
  put_str(out, arch_name);
  put_uint(out, f.fields.size(), 2);
  for (std::size_t i = 0; i < f.fields.size(); ++i) {
    const FieldDesc& fd = f.fields[order.empty() ? i : order[i]];
    put_str(out, fd.name);
    put_uint(out, static_cast<std::uint8_t>(fd.base), 1);
    put_str(out, fd.subformat);
    put_uint(out, fd.elem_size, 4);
    put_uint(out, fd.static_elems, 4);
    put_str(out, fd.var_dim_field);
    put_uint(out, fd.offset, 4);
    put_uint(out, fd.slot_size, 4);
  }
}

template <typename Sink>
void encode_all(Sink& out, const FormatDesc& f) {
  put_uint(out, kMetaVersion, 1);
  encode_one(out, f, f.arch_name, {});
  put_uint(out, f.subformats.size(), 2);
  for (const FormatDesc& sub : f.subformats) {
    encode_one(out, sub, sub.arch_name, {});
  }
}

/// The order std::sort would put `n` items in under `less` (which compares
/// item indices), as an index permutation in `scratch`. Sorting indices
/// makes the same comparisons and moves as sorting the items, so ties land
/// exactly where a sort of the items would put them. Empty — the identity —
/// when the items are already strictly ascending: that order is the only
/// sorted one, and no index is built.
template <typename Less>
std::span<const std::uint32_t> sorted_order(
    std::size_t n, Less less, std::vector<std::uint32_t>& scratch) {
  std::size_t i = 1;
  while (i < n && less(i - 1, i)) ++i;
  if (i >= n) return {};
  scratch.resize(n);
  std::iota(scratch.begin(), scratch.end(), std::uint32_t{0});
  std::sort(scratch.begin(), scratch.end(), less);
  return scratch;
}

/// Fields in (offset, name) order.
std::span<const std::uint32_t> canonical_field_order(
    const FormatDesc& f, std::vector<std::uint32_t>& scratch) {
  return sorted_order(
      f.fields.size(),
      [&f](std::size_t a, std::size_t b) {
        const FieldDesc& x = f.fields[a];
        const FieldDesc& y = f.fields[b];
        if (x.offset != y.offset) return x.offset < y.offset;
        return x.name < y.name;
      },
      scratch);
}

WIRE_TAINTED bool decode_one(ByteReader& in, FormatDesc* f) {
  if (!get_str(in, &f->name)) return false;
  std::uint64_t v = 0;
  if (!in.read_uint(&v, 1, kMetaOrder) || v > 1) return false;
  f->byte_order = static_cast<ByteOrder>(v);
  if (!in.read_uint(&v, 1, kMetaOrder)) return false;
  f->pointer_size = static_cast<std::uint8_t>(v);
  if (!in.read_uint(&v, 4, kMetaOrder)) return false;
  f->fixed_size = static_cast<std::uint32_t>(v);
  if (!get_str(in, &f->arch_name)) return false;
  std::uint64_t nfields = 0;
  if (!in.read_uint(&nfields, 2, kMetaOrder) || nfields > kMaxFields) {
    return false;
  }
  f->fields.resize(static_cast<std::size_t>(nfields));
  for (FieldDesc& fd : f->fields) {
    if (!get_str(in, &fd.name)) return false;
    if (!in.read_uint(&v, 1, kMetaOrder) ||
        v > static_cast<std::uint64_t>(BaseType::kStruct)) {
      return false;
    }
    fd.base = static_cast<BaseType>(v);
    if (!get_str(in, &fd.subformat)) return false;
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.elem_size = static_cast<std::uint32_t>(v);
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.static_elems = static_cast<std::uint32_t>(v);
    if (!get_str(in, &fd.var_dim_field)) return false;
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.offset = static_cast<std::uint32_t>(v);
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.slot_size = static_cast<std::uint32_t>(v);
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_meta(const FormatDesc& f) {
  ByteBuffer out(256);
  encode_all(out, f);
  return {out.data(), out.data() + out.size()};
}

void encode_meta(const FormatDesc& f, ByteBuffer& out) { encode_all(out, f); }

std::uint64_t FormatDesc::fingerprint() const {
  // The hash of the meta encoding, so that equality of wire-relevant
  // content implies equal ids regardless of how the description was built.
  FnvSink out{kFnvOffset};
  encode_all(out, *this);
  return out.h;
}

std::uint64_t canonical_hash(const FormatDesc& f) {
  // The meta encoding of the normalized description, streamed: every
  // arch_name written empty, fields in (offset, name) order, subformats in
  // name order. The encoding already covers every wire-relevant attribute,
  // so normalization only has to erase the non-semantic degrees of freedom.
  // Domain-separated from fingerprint() so the two id spaces cannot be
  // confused even for formats whose canonical form is their announced form.
  thread_local std::vector<std::uint32_t> sub_scratch;
  thread_local std::vector<std::uint32_t> field_scratch;
  FnvSink out{fnv1a("pbio.canonical.v1")};
  put_uint(out, kMetaVersion, 1);
  encode_one(out, f, {}, canonical_field_order(f, field_scratch));
  put_uint(out, f.subformats.size(), 2);
  const std::span<const std::uint32_t> subs = sorted_order(
      f.subformats.size(),
      [&f](std::size_t a, std::size_t b) {
        return f.subformats[a].name < f.subformats[b].name;
      },
      sub_scratch);
  for (std::size_t i = 0; i < f.subformats.size(); ++i) {
    const FormatDesc& sub = f.subformats[subs.empty() ? i : subs[i]];
    encode_one(out, sub, {}, canonical_field_order(sub, field_scratch));
  }
  return out.h;
}

Result<FormatDesc> decode_meta(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  std::uint64_t version = 0;
  if (!in.read_uint(&version, 1, kMetaOrder) || version != kMetaVersion) {
    return Status(Errc::kMalformed, "bad meta version");
  }
  FormatDesc f;
  if (!decode_one(in, &f)) {
    return Status(Errc::kMalformed, "truncated format meta");
  }
  std::uint64_t nsubs = 0;
  if (!in.read_uint(&nsubs, 2, kMetaOrder) || nsubs > kMaxFields) {
    return Status(Errc::kMalformed, "bad subformat count");
  }
  f.subformats.resize(static_cast<std::size_t>(nsubs));
  for (FormatDesc& sub : f.subformats) {
    if (!decode_one(in, &sub)) {
      return Status(Errc::kMalformed, "truncated subformat meta");
    }
  }
  try {
    f.validate();
  } catch (const PbioError& e) {
    return Status(Errc::kMalformed, e.what());
  }
  return f;
}

}  // namespace pbio::fmt
