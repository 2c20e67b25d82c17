// Unit + property tests for the serialization substrate.
#include <gtest/gtest.h>

#include "serial/buffer.h"
#include "serial/schema.h"
#include "util/rng.h"

namespace flexio::serial {
namespace {

TEST(BufferTest, PrimitivesRoundTrip) {
  BufWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.14159);
  w.put_string("hello");

  BufReader r(w.view());
  std::uint8_t u8; std::uint16_t u16; std::uint32_t u32; std::uint64_t u64;
  std::int64_t i64; double f64; std::string s;
  ASSERT_TRUE(r.get_u8(&u8).is_ok());
  ASSERT_TRUE(r.get_u16(&u16).is_ok());
  ASSERT_TRUE(r.get_u32(&u32).is_ok());
  ASSERT_TRUE(r.get_u64(&u64).is_ok());
  ASSERT_TRUE(r.get_i64(&i64).is_ok());
  ASSERT_TRUE(r.get_f64(&f64).is_ok());
  ASSERT_TRUE(r.get_string(&s).is_ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(BufferTest, UnderrunIsReported) {
  BufWriter w;
  w.put_u16(7);
  BufReader r(w.view());
  std::uint32_t v = 0;
  EXPECT_EQ(r.get_u32(&v).code(), ErrorCode::kOutOfRange);
}

TEST(BufferTest, VarintBoundaries) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
        0xffffffffULL, 0xffffffffffffffffULL}) {
    BufWriter w;
    w.put_varint(v);
    BufReader r(w.view());
    std::uint64_t out = 0;
    ASSERT_TRUE(r.get_varint(&out).is_ok()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(BufferTest, VarintOverflowRejected) {
  // Eleven continuation bytes encode >64 bits.
  std::vector<std::byte> bad(11, std::byte{0xff});
  bad.back() = std::byte{0x7f};
  BufReader r{ByteView(bad)};
  std::uint64_t v = 0;
  EXPECT_FALSE(r.get_varint(&v).is_ok());
}

TEST(BufferTest, BytesViewIsZeroCopy) {
  BufWriter w;
  const std::byte payload[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
  w.put_bytes(ByteView(payload));
  const auto owned = w.take();
  BufReader r{ByteView(owned)};
  ByteView view;
  ASSERT_TRUE(r.get_bytes(&view).is_ok());
  ASSERT_EQ(view.size(), 3u);
  EXPECT_GE(view.data(), owned.data());
  EXPECT_LT(view.data(), owned.data() + owned.size());
  EXPECT_EQ(view[2], std::byte{3});
}

TEST(BufferTest, SeekAndPosition) {
  BufWriter w;
  w.put_u32(1);
  w.put_u32(2);
  BufReader r(w.view());
  std::uint32_t v = 0;
  ASSERT_TRUE(r.get_u32(&v).is_ok());
  EXPECT_EQ(r.position(), 4u);
  ASSERT_TRUE(r.seek(0).is_ok());
  ASSERT_TRUE(r.get_u32(&v).is_ok());
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(r.seek(100).is_ok());
}

TEST(BufferTest, VarintRandomRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.next_below(64));
    BufWriter w;
    w.put_varint(v);
    BufReader r(w.view());
    std::uint64_t out = 0;
    ASSERT_TRUE(r.get_varint(&out).is_ok());
    ASSERT_EQ(out, v);
  }
}

TEST(BufferTest, TrailerSkipPrimitives) {
  // BufReader behaviour the decoders lean on: at_end() tells a consumed
  // frame from one with bytes left (core/wire.cpp rejects the latter),
  // get_view(remaining()) takes the rest in one step (the mux prefix
  // decoder hands it on as the inner frame), and a truncated field
  // surfaces as an explicit underrun rather than garbage.
  BufWriter w;
  w.put_u64(7);         // "body"
  w.put_u8(200);        // a tag
  w.put_varint(12345);  // its payload
  BufReader r(w.view());
  std::uint64_t body = 0;
  ASSERT_TRUE(r.get_u64(&body).is_ok());
  EXPECT_FALSE(r.at_end());  // bytes left past the body
  std::uint8_t tag = 0;
  ASSERT_TRUE(r.get_u8(&tag).is_ok());
  EXPECT_EQ(tag, 200);
  ByteView rest;
  ASSERT_TRUE(r.get_view(r.remaining(), &rest).is_ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.remaining(), 0u);

  // Body only: the reader lands exactly at the end.
  BufWriter old;
  old.put_u64(7);
  BufReader r_old(old.view());
  ASSERT_TRUE(r_old.get_u64(&body).is_ok());
  EXPECT_TRUE(r_old.at_end());

  // Tag present but its payload truncated: underrun, not garbage.
  BufWriter cut;
  cut.put_u64(7);
  cut.put_u8(1);  // tag announcing a payload that never comes
  BufReader r_cut(cut.view());
  ASSERT_TRUE(r_cut.get_u64(&body).is_ok());
  ASSERT_TRUE(r_cut.get_u8(&tag).is_ok());
  std::uint64_t missing = 0;
  EXPECT_FALSE(r_cut.get_varint(&missing).is_ok());
}

Schema particle_schema() {
  return Schema("particle_meta",
                {{"name", DataType::kString, false},
                 {"step", DataType::kInt64, false},
                 {"count", DataType::kUInt32, false},
                 {"weight", DataType::kDouble, false},
                 {"dims", DataType::kInt64, true},
                 {"payload", DataType::kBytes, false}});
}

TEST(SchemaTest, FingerprintStableAndDiscriminating) {
  EXPECT_EQ(particle_schema().fingerprint(), particle_schema().fingerprint());
  Schema other("particle_meta", {{"name", DataType::kString, false}});
  EXPECT_NE(other.fingerprint(), particle_schema().fingerprint());
  // Array-ness participates in the fingerprint.
  Schema a("s", {{"f", DataType::kInt64, false}});
  Schema b("s", {{"f", DataType::kInt64, true}});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(SchemaTest, SchemaSelfDescribes) {
  const Schema s = particle_schema();
  BufWriter w;
  s.encode(&w);
  BufReader r(w.view());
  auto decoded = Schema::decode(&r);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), s);
  EXPECT_EQ(decoded.value().fingerprint(), s.fingerprint());
}

TEST(SchemaTest, FieldIndex) {
  const Schema s = particle_schema();
  EXPECT_EQ(s.field_index("name"), 0);
  EXPECT_EQ(s.field_index("payload"), 5);
  EXPECT_EQ(s.field_index("nope"), -1);
}

TEST(RecordTest, RoundTripAllFieldKinds) {
  const Schema s = particle_schema();
  Record rec(&s);
  ASSERT_TRUE(rec.set("name", std::string("zion")).is_ok());
  ASSERT_TRUE(rec.set("step", std::int64_t{12}).is_ok());
  ASSERT_TRUE(rec.set("count", std::uint64_t{77}).is_ok());
  ASSERT_TRUE(rec.set("weight", 0.25).is_ok());
  ASSERT_TRUE(rec.set("dims", std::vector<std::int64_t>{10, 7}).is_ok());
  ASSERT_TRUE(
      rec.set("payload", std::vector<std::byte>{std::byte{9}}).is_ok());

  BufWriter w;
  rec.encode(&w);
  BufReader r(w.view());
  auto out = Record::decode(s, &r);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().get_string("name").value(), "zion");
  EXPECT_EQ(out.value().get_int("step").value(), 12);
  EXPECT_EQ(out.value().get_int("count").value(), 77);
  EXPECT_DOUBLE_EQ(out.value().get_double("weight").value(), 0.25);
  const auto& dims =
      std::get<std::vector<std::int64_t>>(out.value().get("dims"));
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[1], 7);
}

TEST(RecordTest, TypeMismatchRejected) {
  const Schema s = particle_schema();
  Record rec(&s);
  EXPECT_FALSE(rec.set("name", 3.0).is_ok());
  EXPECT_FALSE(rec.set("weight", std::string("x")).is_ok());
  EXPECT_FALSE(rec.set("dims", 1.5).is_ok());
}

TEST(RecordTest, FingerprintMismatchDetected) {
  const Schema s = particle_schema();
  Record rec(&s);
  BufWriter w;
  rec.encode(&w);
  const Schema other("other", {{"x", DataType::kInt64, false}});
  BufReader r(w.view());
  auto out = Record::decode(other, &r);
  EXPECT_FALSE(out.is_ok());
}

TEST(RecordTest, NegativeNarrowIntsRoundTrip) {
  const Schema s("narrow", {{"a", DataType::kInt8, false},
                            {"b", DataType::kInt16, false},
                            {"c", DataType::kInt32, false}});
  Record rec(&s);
  ASSERT_TRUE(rec.set("a", std::int64_t{-5}).is_ok());
  ASSERT_TRUE(rec.set("b", std::int64_t{-3000}).is_ok());
  ASSERT_TRUE(rec.set("c", std::int64_t{-2000000000}).is_ok());
  BufWriter w;
  rec.encode(&w);
  BufReader r(w.view());
  auto out = Record::decode(s, &r);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().get_int("a").value(), -5);
  EXPECT_EQ(out.value().get_int("b").value(), -3000);
  EXPECT_EQ(out.value().get_int("c").value(), -2000000000);
}

TEST(RecordTest, FloatArrayRoundTripsViaDouble) {
  const Schema s("fa", {{"vals", DataType::kFloat, true}});
  Record rec(&s);
  ASSERT_TRUE(rec.set("vals", std::vector<double>{1.5, -2.5, 0.0}).is_ok());
  BufWriter w;
  rec.encode(&w);
  BufReader r(w.view());
  auto out = Record::decode(s, &r);
  ASSERT_TRUE(out.is_ok());
  const auto& vals = std::get<std::vector<double>>(out.value().get("vals"));
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_DOUBLE_EQ(vals[1], -2.5);
}

TEST(DataTypeTest, ParseNamesRoundTrip) {
  for (int t = 0; t <= static_cast<int>(DataType::kBytes); ++t) {
    const auto dt = static_cast<DataType>(t);
    auto parsed = parse_datatype(datatype_name(dt));
    ASSERT_TRUE(parsed.is_ok()) << datatype_name(dt);
    EXPECT_EQ(parsed.value(), dt);
  }
  EXPECT_FALSE(parse_datatype("quaternion").is_ok());
}

TEST(DataTypeTest, Sizes) {
  EXPECT_EQ(size_of(DataType::kInt8), 1u);
  EXPECT_EQ(size_of(DataType::kFloat), 4u);
  EXPECT_EQ(size_of(DataType::kDouble), 8u);
  EXPECT_EQ(size_of(DataType::kString), 0u);
}

// Property: a randomly-built record always round-trips bit-exactly.
class RecordPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RecordPropertyTest, RandomRecordsRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Schema s("prop", {{"i", DataType::kInt64, false},
                          {"u", DataType::kUInt32, false},
                          {"d", DataType::kDouble, false},
                          {"name", DataType::kString, false},
                          {"di", DataType::kInt32, true},
                          {"dd", DataType::kDouble, true}});
  Record rec(&s);
  const auto i = static_cast<std::int64_t>(rng.next_u64());
  const auto u = static_cast<std::uint64_t>(rng.next_below(1u << 31));
  const double d = rng.next_gaussian() * 1e6;
  std::string name;
  for (std::uint64_t k = 0; k < rng.next_below(32); ++k) {
    name.push_back(static_cast<char>('a' + rng.next_below(26)));
  }
  std::vector<std::int64_t> di;
  for (std::uint64_t k = 0; k < rng.next_below(20); ++k) {
    di.push_back(static_cast<std::int32_t>(rng.next_u64()));
  }
  std::vector<double> dd;
  for (std::uint64_t k = 0; k < rng.next_below(20); ++k) {
    dd.push_back(rng.next_gaussian());
  }
  ASSERT_TRUE(rec.set("i", i).is_ok());
  ASSERT_TRUE(rec.set("u", u).is_ok());
  ASSERT_TRUE(rec.set("d", d).is_ok());
  ASSERT_TRUE(rec.set("name", name).is_ok());
  ASSERT_TRUE(rec.set("di", di).is_ok());
  ASSERT_TRUE(rec.set("dd", dd).is_ok());

  BufWriter w;
  rec.encode(&w);
  BufReader r(w.view());
  auto out = Record::decode(s, &r);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().get_int("i").value(), i);
  EXPECT_EQ(static_cast<std::uint64_t>(out.value().get_int("u").value()), u);
  EXPECT_DOUBLE_EQ(out.value().get_double("d").value(), d);
  EXPECT_EQ(out.value().get_string("name").value(), name);
  EXPECT_EQ(std::get<std::vector<std::int64_t>>(out.value().get("di")), di);
  EXPECT_EQ(std::get<std::vector<double>>(out.value().get("dd")), dd);
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordPropertyTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace flexio::serial
