// The two format hashes are defined over the meta encoding: fingerprint(),
// the wire format id, is FNV-1a of encode_meta(f); canonical_hash(), the
// artifact-cache key half, is FNV-1a (seeded with "pbio.canonical.v1") of
// encode_meta of a normalized copy — arch_name cleared, fields sorted by
// (offset, name), subformats by name. The library streams both without
// building the bytes or the copy. These tests pin the streamed hashes to
// that definition, written out here the long way: wire ids cross process
// boundaries and must not move, and the cache key moves only on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "arch/abi.h"
#include "arch/layout.h"
#include "fmt/format.h"
#include "fmt/meta.h"
#include "util/hash.h"
#include "value/random.h"

namespace pbio::fmt {
namespace {

std::uint64_t reference_fingerprint(const FormatDesc& f) {
  const std::vector<std::uint8_t> bytes = encode_meta(f);
  return fnv1a(bytes.data(), bytes.size());
}

void normalize_fields(FormatDesc* f) {
  f->arch_name.clear();
  std::sort(f->fields.begin(), f->fields.end(),
            [](const FieldDesc& a, const FieldDesc& b) {
              if (a.offset != b.offset) return a.offset < b.offset;
              return a.name < b.name;
            });
}

std::uint64_t reference_canonical(FormatDesc f) {
  normalize_fields(&f);
  std::sort(f.subformats.begin(), f.subformats.end(),
            [](const FormatDesc& a, const FormatDesc& b) {
              return a.name < b.name;
            });
  for (FormatDesc& sub : f.subformats) normalize_fields(&sub);
  const std::vector<std::uint8_t> bytes = encode_meta(f);
  return fnv1a(bytes.data(), bytes.size(), fnv1a("pbio.canonical.v1"));
}

void expect_reference_hashes(const FormatDesc& f) {
  EXPECT_EQ(f.fingerprint(), reference_fingerprint(f));
  EXPECT_EQ(canonical_hash(f), reference_canonical(f));
}

TEST(FormatHash, RandomCorpusOnEveryAbiMatchesTheEncodedMeta) {
  std::mt19937_64 rng(17);
  std::size_t with_subs = 0;
  for (int i = 0; i < 40; ++i) {
    const arch::StructSpec spec = value::random_spec(rng);
    for (const arch::Abi* abi : arch::all_abis()) {
      SCOPED_TRACE(::testing::Message() << "spec " << i << " on "
                                        << abi->name);
      const FormatDesc f = arch::layout_format(spec, *abi);
      expect_reference_hashes(f);

      // Fields out of offset order: the branch that sorts an index. The
      // canonical hash must not notice.
      FormatDesc shuffled = f;
      std::shuffle(shuffled.fields.begin(), shuffled.fields.end(), rng);
      for (FormatDesc& sub : shuffled.subformats) {
        std::reverse(sub.fields.begin(), sub.fields.end());
      }
      expect_reference_hashes(shuffled);
      EXPECT_EQ(canonical_hash(shuffled), canonical_hash(f));

      // Subformats out of name order: a renamed copy listed last sorts
      // first.
      if (!f.subformats.empty()) {
        ++with_subs;
        FormatDesc unsorted = shuffled;
        unsorted.subformats.push_back(f.subformats.front());
        std::string& name = unsorted.subformats.back().name;
        name.insert(name.begin(), '0');
        expect_reference_hashes(unsorted);
      }
    }
  }
  EXPECT_GT(with_subs, 0u) << "corpus never exercised subformat order";
}

TEST(FormatHash, TiedSortKeysLandWhereTheReferenceSortPutsThem) {
  // Fields sharing (offset, name) but differing elsewhere: their relative
  // order after the sort decides the hash. Enough of them that the sort is
  // not a plain insertion sort.
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    FormatDesc f;
    f.name = "ties";
    f.fixed_size = 64;
    for (std::uint32_t i = 0; i < 48; ++i) {
      f.fields.push_back({.name = rng() % 2 ? "a" : "b",
                          .base = BaseType::kUInt,
                          .elem_size = 1u << (rng() % 4),
                          .offset = static_cast<std::uint32_t>(rng() % 3),
                          .slot_size = i + 1});
    }
    for (int s = 0; s < 24; ++s) {
      FormatDesc sub;
      sub.name.assign(1, rng() % 2 ? 'p' : 'q');
      sub.fixed_size = static_cast<std::uint32_t>(s + 1);
      sub.fields = {{.name = "x", .base = BaseType::kChar, .elem_size = 1,
                     .offset = 0, .slot_size = 1}};
      f.subformats.push_back(sub);
    }
    expect_reference_hashes(f);
  }
}

/// A var-length record with a string, a struct array and a subformat.
arch::StructSpec golden_spec() {
  arch::StructSpec pt;
  pt.name = "pt";
  pt.fields = {{.name = "x", .type = arch::CType::kDouble},
               {.name = "tag", .type = arch::CType::kShort}};
  arch::StructSpec s;
  s.name = "golden";
  s.fields = {{.name = "n", .type = arch::CType::kUInt},
              {.name = "label", .type = arch::CType::kString},
              {.name = "pts", .array_elems = 3, .subformat = "pt"},
              {.name = "vals", .type = arch::CType::kLong,
               .var_dim_field = "n"},
              {.name = "flag", .type = arch::CType::kChar}};
  s.subs = {pt};
  return s;
}

/// Values computed by the materializing implementation the streamed hashes
/// replaced.
TEST(FormatHash, GoldenValues) {
  FormatDesc hand;
  hand.name = "simple";
  hand.fixed_size = 16;
  hand.arch_name = "sparc_v8";
  hand.byte_order = ByteOrder::kBig;
  hand.pointer_size = 4;
  hand.fields = {{.name = "b", .base = BaseType::kFloat, .elem_size = 8,
                  .offset = 8, .slot_size = 8},
                 {.name = "a", .base = BaseType::kInt, .elem_size = 4,
                  .offset = 0, .slot_size = 4}};
  const FormatDesc sparc = arch::layout_format(golden_spec(),
                                               arch::abi_sparc_v8());
  const FormatDesc x64 = arch::layout_format(golden_spec(),
                                             arch::abi_x86_64());
  EXPECT_EQ(hand.fingerprint(), 0x0e17b1ef6abaf016ull);
  EXPECT_EQ(canonical_hash(hand), 0x8a30406b6016445bull);
  EXPECT_EQ(sparc.fingerprint(), 0x8d0759a10b3666cdull);
  EXPECT_EQ(canonical_hash(sparc), 0xdd1100062739dea2ull);
  EXPECT_EQ(x64.fingerprint(), 0x5e843dddf395eea1ull);
  EXPECT_EQ(canonical_hash(x64), 0x8d8d2c78b0adb110ull);
}

}  // namespace
}  // namespace pbio::fmt
