#include "baselines/xmlwire/decode.h"
#include "baselines/xmlwire/encode.h"
#include "baselines/xmlwire/sax.h"

#include <gtest/gtest.h>

#include "arch/layout.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"

namespace pbio::xmlwire {
namespace {

using arch::CType;
using arch::StructSpec;

// --- SAX parser ---------------------------------------------------------

struct Events {
  std::vector<std::string> log;
  SaxHandlers handlers() {
    SaxHandlers h;
    h.start_element = [this](std::string_view n, const auto& attrs) {
      std::string e = "<" + std::string(n);
      for (const auto& [k, v] : attrs) {
        e.append(" ").append(k).append("=").append(v);
      }
      log.push_back(e + ">");
    };
    h.end_element = [this](std::string_view n) {
      log.push_back("</" + std::string(n) + ">");
    };
    h.char_data = [this](std::string_view t) {
      log.push_back("t:" + std::string(t));
    };
    return h;
  }
};

TEST(Sax, ElementsAndText) {
  Events ev;
  ASSERT_TRUE(sax_parse("<a><b>hi</b></a>", ev.handlers()).is_ok());
  EXPECT_EQ(ev.log, (std::vector<std::string>{"<a>", "<b>", "t:hi", "</b>",
                                              "</a>"}));
}

TEST(Sax, AttributesParsed) {
  Events ev;
  ASSERT_TRUE(
      sax_parse("<rec fmt=\"mesh\" v='2'>x</rec>", ev.handlers()).is_ok());
  EXPECT_EQ(ev.log[0], "<rec fmt=mesh v=2>");
}

TEST(Sax, SelfClosingElement) {
  Events ev;
  ASSERT_TRUE(sax_parse("<a><b/></a>", ev.handlers()).is_ok());
  EXPECT_EQ(ev.log, (std::vector<std::string>{"<a>", "<b>", "</b>", "</a>"}));
}

TEST(Sax, EntitiesDecoded) {
  Events ev;
  ASSERT_TRUE(
      sax_parse("<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>", ev.handlers())
          .is_ok());
  std::string text;
  for (const auto& e : ev.log) {
    if (e.starts_with("t:")) text += e.substr(2);
  }
  EXPECT_EQ(text, "<&>\"'AB");
}

TEST(Sax, CommentsAndPIsSkipped) {
  Events ev;
  ASSERT_TRUE(sax_parse("<?xml version=\"1.0\"?><!-- hi --><a>x</a>",
                        ev.handlers())
                  .is_ok());
  EXPECT_EQ(ev.log.front(), "<a>");
}

TEST(Sax, CdataPassedThrough) {
  Events ev;
  ASSERT_TRUE(sax_parse("<a><![CDATA[<raw>&]]></a>", ev.handlers()).is_ok());
  EXPECT_EQ(ev.log[1], "t:<raw>&");
}

TEST(Sax, MismatchedTagFails) {
  Events ev;
  EXPECT_EQ(sax_parse("<a><b></a></b>", ev.handlers()).code(), Errc::kParse);
}

TEST(Sax, UnterminatedFails) {
  Events ev;
  EXPECT_EQ(sax_parse("<a><b>text", ev.handlers()).code(), Errc::kParse);
  EXPECT_EQ(sax_parse("<a attr=\"x>", ev.handlers()).code(), Errc::kParse);
  EXPECT_EQ(sax_parse("<a>&unknown;</a>", ev.handlers()).code(),
            Errc::kParse);
}

TEST(Sax, EscapeRoundTrip) {
  const std::string nasty = "a<b&c>\"d'e";
  std::string escaped;
  xml_escape(nasty, escaped);
  Events ev;
  ASSERT_TRUE(sax_parse("<a>" + escaped + "</a>", ev.handlers()).is_ok());
  std::string text;
  for (const auto& e : ev.log) {
    if (e.starts_with("t:")) text += e.substr(2);
  }
  EXPECT_EQ(text, nasty);
}

// --- record encode/decode -------------------------------------------------

StructSpec mixed_spec() {
  StructSpec s;
  s.name = "mixed";
  s.fields = {
      {.name = "i", .type = CType::kInt},
      {.name = "d", .type = CType::kDouble, .array_elems = 2},
      {.name = "tag", .type = CType::kChar, .array_elems = 8},
  };
  return s;
}

TEST(XmlWire, EncodeProducesReadableXml) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  value::Record rec;
  rec.set("i", value::Value(-3));
  rec.set("d", value::Value(value::Value::List{value::Value(1.5),
                                               value::Value(2.5)}));
  rec.set("tag", value::Value("hi"));
  const auto image = value::materialize(f, rec);
  std::string xml;
  ASSERT_TRUE(encode_xml(f, image, xml).is_ok());
  EXPECT_EQ(xml,
            "<rec fmt=\"mixed\"><i>-3</i><d>1.5 2.5</d><tag>hi</tag></rec>");
}

TEST(XmlWire, RoundTripHomogeneous) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  value::Record rec;
  rec.set("i", value::Value(42));
  rec.set("d", value::Value(value::Value::List{value::Value(-0.125),
                                               value::Value(3.75)}));
  rec.set("tag", value::Value("xml"));
  const auto image = value::materialize(f, rec);
  std::string xml;
  ASSERT_TRUE(encode_xml(f, image, xml).is_ok());

  std::vector<std::uint8_t> out(f.fixed_size, 0xEE);
  ASSERT_TRUE(decode_xml(f, xml, out).is_ok());
  auto back = value::read_record(f, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), rec));
}

TEST(XmlWire, HeterogeneousSenderReceiver) {
  // XML text from a big-endian sender decodes on any receiver — the format
  // carries no binary layout at all.
  const auto src = arch::layout_format(mixed_spec(), arch::abi_sparc_v8());
  const auto dst = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  value::Record rec;
  rec.set("i", value::Value(7));
  rec.set("d", value::Value(value::Value::List{value::Value(1.0),
                                               value::Value(2.0)}));
  rec.set("tag", value::Value("BE"));
  const auto image = value::materialize(src, rec);
  std::string xml;
  ASSERT_TRUE(encode_xml(src, image, xml).is_ok());
  std::vector<std::uint8_t> out(dst.fixed_size, 0);
  ASSERT_TRUE(decode_xml(dst, xml, out).is_ok());
  auto back = value::read_record(dst, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), rec));
}

TEST(XmlWire, UnknownElementsSkipped) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  const std::string xml =
      "<rec fmt=\"mixed\"><bonus>9 9 9</bonus><i>5</i>"
      "<d>1 2</d><tag>ok</tag></rec>";
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  ASSERT_TRUE(decode_xml(f, xml, out).is_ok());
  auto back = value::read_record(f, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().find("i")->as_int(), 5);
  EXPECT_EQ(back.value().find("tag")->as_string(), "ok");
}

TEST(XmlWire, MissingFieldsStayZero) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  std::vector<std::uint8_t> out(f.fixed_size, 0xFF);
  ASSERT_TRUE(decode_xml(f, "<rec fmt=\"mixed\"><i>1</i></rec>", out).is_ok());
  auto back = value::read_record(f, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().find("i")->as_int(), 1);
  EXPECT_EQ(back.value().find("d")->as_list()[0].as_double(), 0.0);
}

TEST(XmlWire, MalformedNumbersFail) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  EXPECT_EQ(decode_xml(f, "<rec fmt=\"mixed\"><i>zap</i></rec>", out).code(),
            Errc::kParse);
}

TEST(XmlWire, MalformedXmlFails) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  EXPECT_EQ(decode_xml(f, "<rec fmt=\"mixed\"><i>1</rec>", out).code(),
            Errc::kParse);
}

TEST(XmlWire, StringsAndVarArrays) {
  StructSpec s;
  s.name = "ev";
  s.fields = {{.name = "n", .type = CType::kUInt},
              {.name = "name", .type = CType::kString},
              {.name = "vals", .type = CType::kDouble, .var_dim_field = "n"}};
  const auto f = arch::layout_format(s, arch::abi_x86_64());
  value::Record rec;
  rec.set("n", value::Value(std::uint64_t{3}));
  rec.set("name", value::Value("T < 5 & x"));
  rec.set("vals", value::Value(value::Value::List{
                      value::Value(1.5), value::Value(2.5), value::Value(3.5)}));
  const auto image = value::materialize(f, rec);
  std::string xml;
  ASSERT_TRUE(encode_xml(f, image, xml).is_ok());
  EXPECT_NE(xml.find("&lt;"), std::string::npos);  // escaped

  std::vector<std::uint8_t> fixed(f.fixed_size, 0);
  ByteBuffer var;
  ASSERT_TRUE(decode_xml(f, xml, fixed, &var).is_ok());
  std::vector<std::uint8_t> whole = fixed;
  whole.insert(whole.end(), var.data(), var.data() + var.size());
  auto back = value::read_record(f, whole);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_TRUE(value::equivalent(back.value(), rec))
      << value::Value(back.value()).to_string();
}

TEST(XmlWire, NestedStructArrays) {
  StructSpec point;
  point.name = "pt";
  point.fields = {{.name = "x", .type = CType::kDouble},
                  {.name = "y", .type = CType::kDouble}};
  StructSpec top;
  top.name = "tri";
  top.fields = {{.name = "id", .type = CType::kInt},
                {.name = "pts", .array_elems = 3, .subformat = "pt"}};
  top.subs = {point};
  const auto f = arch::layout_format(top, arch::abi_x86_64());
  value::Record pt1, pt2, pt3;
  pt1.set("x", value::Value(1.0));
  pt1.set("y", value::Value(2.0));
  pt2.set("x", value::Value(3.0));
  pt2.set("y", value::Value(4.0));
  pt3.set("x", value::Value(5.0));
  pt3.set("y", value::Value(6.0));
  value::Record rec;
  rec.set("id", value::Value(9));
  rec.set("pts", value::Value(value::Value::List{value::Value(pt1),
                                                 value::Value(pt2),
                                                 value::Value(pt3)}));
  const auto image = value::materialize(f, rec);
  std::string xml;
  ASSERT_TRUE(encode_xml(f, image, xml).is_ok());
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  ASSERT_TRUE(decode_xml(f, xml, out).is_ok());
  auto back = value::read_record(f, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), rec))
      << value::Value(back.value()).to_string();
}

TEST(XmlWire, ElementPerValueStyleRoundTrips) {
  // The 2000-era wire style: every array element in its own tag.
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  value::Record rec;
  rec.set("i", value::Value(-3));
  rec.set("d", value::Value(value::Value::List{value::Value(1.5),
                                               value::Value(2.5)}));
  rec.set("tag", value::Value("pv"));
  const auto image = value::materialize(f, rec);
  std::string xml;
  ASSERT_TRUE(
      encode_xml(f, image, xml, XmlStyle{.element_per_value = true}).is_ok());
  EXPECT_EQ(xml,
            "<rec fmt=\"mixed\"><i>-3</i><d>1.5</d><d>2.5</d>"
            "<tag>pv</tag></rec>");
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  ASSERT_TRUE(decode_xml(f, xml, out).is_ok());
  auto back = value::read_record(f, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), rec));
}

TEST(XmlWire, ElementPerValuePropertyRoundTrip) {
  std::mt19937_64 rng(31415);
  const XmlStyle style{.element_per_value = true};
  for (int i = 0; i < 20; ++i) {
    const auto spec = value::random_spec(rng);
    const auto rec = value::random_record(spec, rng);
    const auto f = arch::layout_format(spec, arch::abi_x86_64());
    const auto image = value::materialize(f, rec);
    std::string xml;
    ASSERT_TRUE(encode_xml(f, image, xml, style).is_ok()) << i;
    std::vector<std::uint8_t> fixed(f.fixed_size, 0);
    ByteBuffer var;
    ASSERT_TRUE(decode_xml(f, xml, fixed, &var).is_ok()) << i;
    std::vector<std::uint8_t> whole = fixed;
    whole.insert(whole.end(), var.data(), var.data() + var.size());
    auto back = value::read_record(f, whole);
    ASSERT_TRUE(back.is_ok()) << i << ": " << back.status().to_string();
    EXPECT_TRUE(value::equivalent(back.value(), rec))
        << i << "\n xml " << xml << "\n want " << value::Value(rec).to_string()
        << "\n got " << value::Value(back.value()).to_string();
  }
}

TEST(XmlWire, ExpansionFactorMatchesPaper) {
  // Paper §2: "an expansion factor of 6-8 is not unusual" for binary data.
  StructSpec s;
  s.name = "block";
  s.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 128}};
  const auto f = arch::layout_format(s, arch::abi_x86_64());
  std::mt19937_64 rng(11);
  value::Value::List vals;
  for (int i = 0; i < 128; ++i) {
    vals.push_back(value::Value(
        static_cast<double>(static_cast<std::int64_t>(rng())) / 3.0));
  }
  value::Record rec;
  rec.set("vals", value::Value(std::move(vals)));
  const auto image = value::materialize(f, rec);
  std::string xml;
  ASSERT_TRUE(encode_xml(f, image, xml).is_ok());
  const double factor =
      static_cast<double>(xml.size()) / static_cast<double>(image.size());
  EXPECT_GT(factor, 2.0);
  EXPECT_LT(factor, 10.0);
}

TEST(XmlWire, PropertyRandomRecordsRoundTrip) {
  std::mt19937_64 rng(777);
  for (int i = 0; i < 30; ++i) {
    const auto spec = value::random_spec(rng);
    const auto rec = value::random_record(spec, rng);
    for (const auto* abi : {&arch::abi_x86_64(), &arch::abi_sparc_v9()}) {
      const auto f = arch::layout_format(spec, *abi);
      const auto image = value::materialize(f, rec);
      std::string xml;
      ASSERT_TRUE(encode_xml(f, image, xml).is_ok()) << i;
      std::vector<std::uint8_t> fixed(f.fixed_size, 0);
      ByteBuffer var;
      ASSERT_TRUE(decode_xml(f, xml, fixed, &var).is_ok()) << i;
      std::vector<std::uint8_t> whole = fixed;
      whole.insert(whole.end(), var.data(), var.data() + var.size());
      auto back = value::read_record(f, whole);
      ASSERT_TRUE(back.is_ok()) << i << ": " << back.status().to_string();
      EXPECT_TRUE(value::equivalent(back.value(), rec))
          << i << " " << abi->name << "\n want " << value::Value(rec).to_string()
          << "\n got " << value::Value(back.value()).to_string();
    }
  }
}

}  // namespace
}  // namespace pbio::xmlwire
