#include "fmt/format.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

namespace pbio::fmt {
namespace {

FormatDesc simple_format() {
  FormatDesc f;
  f.name = "simple";
  f.fixed_size = 16;
  f.byte_order = ByteOrder::kLittle;
  f.pointer_size = 8;
  f.fields = {
      {.name = "a", .base = BaseType::kInt, .elem_size = 4, .offset = 0,
       .slot_size = 4},
      {.name = "b", .base = BaseType::kFloat, .elem_size = 8, .offset = 8,
       .slot_size = 8},
  };
  return f;
}

TEST(Format, ValidFormatPassesValidation) {
  EXPECT_NO_THROW(simple_format().validate());
}

TEST(Format, FindField) {
  const auto f = simple_format();
  ASSERT_NE(f.find_field("a"), nullptr);
  EXPECT_EQ(f.find_field("a")->elem_size, 4u);
  EXPECT_EQ(f.find_field("zzz"), nullptr);
}

TEST(Format, FieldPastEndFails) {
  auto f = simple_format();
  f.fields[1].offset = 12;  // 12 + 8 > 16
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, OverlappingFieldsFail) {
  auto f = simple_format();
  f.fields[1].offset = 2;  // overlaps field a at [0,4)
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, EmptyFieldsFail) {
  FormatDesc f;
  f.name = "empty";
  f.fixed_size = 4;
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, BadFloatSizeFails) {
  auto f = simple_format();
  f.fields[1].elem_size = 2;
  f.fields[1].slot_size = 2;
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, SlotSizeMismatchFails) {
  auto f = simple_format();
  f.fields[0].slot_size = 8;  // elem 4 x 1 != 8
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, DanglingVarDimFails) {
  auto f = simple_format();
  f.fields.push_back({.name = "arr",
                      .base = BaseType::kInt,
                      .elem_size = 4,
                      .var_dim_field = "missing",
                      .offset = 4,
                      .slot_size = 8});
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, VarDimMustBeScalarInteger) {
  auto f = simple_format();
  f.fields.push_back({.name = "arr",
                      .base = BaseType::kInt,
                      .elem_size = 4,
                      .var_dim_field = "b",  // b is a float
                      .offset = 4,
                      .slot_size = 8});
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, DanglingSubformatFails) {
  auto f = simple_format();
  f.fields.push_back({.name = "s",
                      .base = BaseType::kStruct,
                      .subformat = "ghost",
                      .elem_size = 4,
                      .offset = 4,
                      .slot_size = 4});
  EXPECT_THROW(f.validate(), PbioError);
}

TEST(Format, VariableFieldInsideSubformatFails) {
  auto f = simple_format();
  FormatDesc sub;
  sub.name = "sub";
  sub.fixed_size = 8;
  sub.pointer_size = 8;
  sub.fields = {{.name = "s",
                 .base = BaseType::kString,
                 .elem_size = 1,
                 .offset = 0,
                 .slot_size = 8}};
  f.subformats.push_back(sub);
  f.fields.push_back({.name = "nested",
                      .base = BaseType::kStruct,
                      .subformat = "sub",
                      .elem_size = 8,
                      .offset = 4,
                      .slot_size = 8});
  EXPECT_THROW(f.validate(), PbioError);
}

/// simple_format() plus a one-field subformat "pt" (8 bytes) and a struct
/// field "p" of it at offset 16.
FormatDesc format_with_sub() {
  FormatDesc f = simple_format();
  f.fixed_size = 24;
  FormatDesc sub;
  sub.name = "pt";
  sub.fixed_size = 8;
  sub.fields = {{.name = "x", .base = BaseType::kFloat, .elem_size = 8,
                 .offset = 0, .slot_size = 8}};
  f.subformats.push_back(sub);
  f.fields.push_back({.name = "p", .base = BaseType::kStruct,
                      .subformat = "pt", .elem_size = 8, .offset = 16,
                      .slot_size = 8});
  return f;
}

/// The exact text of every validate() rejection. The messages reach peers
/// and logs through decode_meta's status, so they are part of the format
/// layer's behaviour, not just of its tests.
TEST(FormatDiagnostics, EveryRejectionMessage) {
  struct Case {
    const char* label;
    std::function<void(FormatDesc&)> mutate;
    const char* what;
  };
  const Case cases[] = {
      {"empty name", [](FormatDesc& f) { f.name.clear(); },
       "format has empty name"},
      {"no fields", [](FormatDesc& f) { f.fields.clear(); },
       "format 'simple' has no fields"},
      {"empty field name", [](FormatDesc& f) { f.fields[1].name.clear(); },
       "format 'simple': empty field name"},
      {"zero slot", [](FormatDesc& f) { f.fields[1].slot_size = 0; },
       "format 'simple' field 'b': zero slot size"},
      {"past end", [](FormatDesc& f) { f.fields[1].offset = 20; },
       "format 'simple' field 'b': slot extends past fixed_size"},
      {"past end, wrapping",
       [](FormatDesc& f) { f.fields[1].offset = 0xFFFFFFFCu; },
       "format 'simple' field 'b': slot extends past fixed_size"},
      {"variable in subformat",
       [](FormatDesc& f) {
         f.subformats[0].fields[0] = {.name = "s", .base = BaseType::kString,
                                      .elem_size = 1, .offset = 0,
                                      .slot_size = 8};
       },
       "format 'pt' field 's': variable-length fields are not supported "
       "inside subformats"},
      {"variable slot not pointer-sized",
       [](FormatDesc& f) {
         f.fields[1] = {.name = "s", .base = BaseType::kString,
                        .elem_size = 1, .offset = 8, .slot_size = 4};
       },
       "format 'simple' field 's': variable field slot must be "
       "pointer-sized"},
      {"zero element size", [](FormatDesc& f) { f.fields[0].elem_size = 0; },
       "format 'simple' field 'a': zero element size"},
      {"slot != elems", [](FormatDesc& f) { f.fields[0].static_elems = 2; },
       "format 'simple' field 'a': slot size != elem_size * static_elems"},
      {"float size",
       [](FormatDesc& f) {
         f.fields[0].base = BaseType::kFloat;
         f.fields[0].elem_size = 2;
         f.fields[0].static_elems = 2;
       },
       "format 'simple' field 'a': float element size must be 4 or 8"},
      {"char size",
       [](FormatDesc& f) {
         f.fields[0].base = BaseType::kChar;
         f.fields[0].elem_size = 2;
         f.fields[0].static_elems = 2;
       },
       "format 'simple' field 'a': char element size must be 1"},
      {"var-dim missing",
       [](FormatDesc& f) {
         f.fields[1] = {.name = "v", .base = BaseType::kFloat,
                        .elem_size = 8, .var_dim_field = "n", .offset = 8,
                        .slot_size = 8};
       },
       "format 'simple' field 'v': var-dim field 'n' not found"},
      {"var-dim not integer",
       [](FormatDesc& f) {
         f.fields[0].base = BaseType::kFloat;
         f.fields[1] = {.name = "v", .base = BaseType::kFloat,
                        .elem_size = 8, .var_dim_field = "a", .offset = 8,
                        .slot_size = 8};
       },
       "format 'simple' field 'v': var-dim field must be an integer"},
      {"var-dim not scalar",
       [](FormatDesc& f) {
         f.fields[0].elem_size = 2;
         f.fields[0].static_elems = 2;
         f.fields[1] = {.name = "v", .base = BaseType::kFloat,
                        .elem_size = 8, .var_dim_field = "a", .offset = 8,
                        .slot_size = 8};
       },
       "format 'simple' field 'v': var-dim field must be a scalar integer"},
      {"subformat missing",
       [](FormatDesc& f) { f.fields[2].subformat = "nope"; },
       "format 'simple' field 'p': subformat 'nope' not found"},
      {"struct element size",
       [](FormatDesc& f) {
         f.fields[2].elem_size = 4;
         f.fields[2].slot_size = 4;
       },
       "format 'simple' field 'p': element size != subformat fixed size"},
      {"struct slot", [](FormatDesc& f) { f.fields[2].slot_size = 4; },
       "format 'simple' field 'p': struct slot size mismatch"},
      {"subformat on non-struct",
       [](FormatDesc& f) { f.fields[0].subformat = "pt"; },
       "format 'simple' field 'a': subformat set on non-struct field"},
      {"overlap, declared in offset order",
       [](FormatDesc& f) { f.fields[0].offset = 6; },
       "format 'simple': fields 'a' and 'b' overlap"},
      {"overlap, declared out of order",
       [](FormatDesc& f) {
         f.fields = {{.name = "c", .base = BaseType::kChar, .elem_size = 1,
                      .offset = 9, .slot_size = 1},
                     {.name = "b", .base = BaseType::kFloat, .elem_size = 8,
                      .offset = 8, .slot_size = 8},
                     {.name = "a", .base = BaseType::kInt, .elem_size = 4,
                      .offset = 0, .slot_size = 4}};
       },
       "format 'simple': fields 'b' and 'c' overlap"},
      {"overlap, first pair in declaration order is not the reported one",
       [](FormatDesc& f) {
         f.fields = {{.name = "a", .base = BaseType::kFloat, .elem_size = 8,
                      .offset = 0, .slot_size = 8},
                     {.name = "b", .base = BaseType::kInt, .elem_size = 4,
                      .offset = 4, .slot_size = 4},
                     {.name = "c", .base = BaseType::kChar, .elem_size = 1,
                      .offset = 2, .slot_size = 1}};
       },
       "format 'simple': fields 'a' and 'c' overlap"},
      {"overlap, equal offsets",
       [](FormatDesc& f) { f.fields[1].offset = 0; },
       "format 'simple': fields 'a' and 'b' overlap"},
      {"overlap inside a subformat",
       [](FormatDesc& f) {
         f.subformats[0].fields.push_back({.name = "y",
                                           .base = BaseType::kInt,
                                           .elem_size = 4, .offset = 4,
                                           .slot_size = 4});
       },
       "format 'pt': fields 'x' and 'y' overlap"},
      {"nested subformat list",
       [](FormatDesc& f) {
         f.subformats[0].subformats.push_back(f.subformats[0]);
       },
       "subformat 'pt' must not carry its own subformat list (kept flat at "
       "the root)"},
      {"subformat field rejection",
       [](FormatDesc& f) { f.subformats[0].fields[0].elem_size = 3; },
       "format 'pt' field 'x': slot size != elem_size * static_elems"},
  };
  ASSERT_NO_THROW(format_with_sub().validate());
  for (const Case& c : cases) {
    FormatDesc f = format_with_sub();
    c.mutate(f);
    try {
      f.validate();
      ADD_FAILURE() << c.label << ": accepted";
    } catch (const PbioError& e) {
      EXPECT_STREQ(e.what(), c.what) << c.label;
    }
  }
}

TEST(Format, FingerprintDiffersOnContentChange) {
  const auto a = simple_format();
  auto b = simple_format();
  b.fields[0].offset = 4;
  b.fields[1].offset = 8;
  ASSERT_NO_THROW(b.validate());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Format, FingerprintStableAcrossCopies) {
  const auto a = simple_format();
  const FormatDesc b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Format, FingerprintSensitiveToByteOrder) {
  auto a = simple_format();
  auto b = simple_format();
  b.byte_order = ByteOrder::kBig;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Format, IsFixedLayout) {
  auto f = simple_format();
  EXPECT_TRUE(f.is_fixed_layout());
  f.fields.push_back({.name = "s",
                      .base = BaseType::kString,
                      .elem_size = 1,
                      .offset = 4,
                      .slot_size = 8});
  EXPECT_FALSE(f.is_fixed_layout());
}

TEST(Format, DescribeMentionsFieldsAndArch) {
  auto f = simple_format();
  f.arch_name = "sparc_v8";
  const std::string text = describe(f);
  EXPECT_NE(text.find("simple"), std::string::npos);
  EXPECT_NE(text.find("sparc_v8"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
}

}  // namespace
}  // namespace pbio::fmt
