#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "serde/serde.h"
#include "query/row.h"

using namespace hamr;
using serde::DecodeError;
using serde::Reader;
using serde::Writer;

// --- varint ----------------------------------------------------------------

class VarintSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintSweep, RoundTrips) {
  ByteBuffer buf;
  Writer w(buf);
  w.put_varint(GetParam());
  Reader r(buf.view());
  EXPECT_EQ(r.get_varint(), GetParam());
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintSweep,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, (1ull << 56) - 1,
                      std::numeric_limits<uint64_t>::max()));

TEST(Varint, EncodedSizeIsMinimal) {
  auto size_of = [](uint64_t v) {
    ByteBuffer buf;
    Writer w(buf);
    w.put_varint(v);
    return buf.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 3u);
  EXPECT_EQ(size_of(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(Varint, RejectsOverlongEncoding) {
  // 11 continuation bytes cannot encode a u64.
  std::string bad(11, '\x80');
  Reader r(bad);
  EXPECT_THROW(r.get_varint(), DecodeError);
}

TEST(Varint, RejectsTruncation) {
  ByteBuffer buf;
  Writer w(buf);
  w.put_varint(1ull << 40);
  Reader r(buf.view().substr(0, 2));
  EXPECT_THROW(r.get_varint(), DecodeError);
}

// --- zigzag -----------------------------------------------------------------

class ZigzagSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ZigzagSweep, RoundTrips) {
  ByteBuffer buf;
  Writer w(buf);
  w.put_zigzag(GetParam());
  Reader r(buf.view());
  EXPECT_EQ(r.get_zigzag(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, ZigzagSweep,
    ::testing::Values(0ll, 1ll, -1ll, 63ll, -64ll, 64ll,
                      std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min()));

TEST(Zigzag, SmallMagnitudesAreSmall) {
  ByteBuffer buf;
  Writer w(buf);
  w.put_zigzag(-1);
  EXPECT_EQ(buf.size(), 1u);  // -1 encodes as 1
}

// --- fixed / double / bytes ---------------------------------------------------

TEST(Serde, FixedRoundTrip) {
  ByteBuffer buf;
  Writer w(buf);
  w.put_fixed32(0xdeadbeef);
  w.put_fixed64(0x0123456789abcdefULL);
  Reader r(buf.view());
  EXPECT_EQ(r.get_fixed32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_fixed64(), 0x0123456789abcdefULL);
}

TEST(Serde, DoubleRoundTripIncludingSpecials) {
  for (double v : {0.0, -0.0, 1.5, -3.25e300, 5e-324,
                   std::numeric_limits<double>::infinity()}) {
    ByteBuffer buf;
    Writer w(buf);
    w.put_double(v);
    Reader r(buf.view());
    EXPECT_EQ(r.get_double(), v);
  }
  ByteBuffer buf;
  Writer w(buf);
  w.put_double(std::numeric_limits<double>::quiet_NaN());
  Reader r(buf.view());
  EXPECT_TRUE(std::isnan(r.get_double()));
}

TEST(Serde, BytesRoundTripWithEmbeddedNulsAndEmpty) {
  const std::string payload("a\0b\0\xff", 5);
  ByteBuffer buf;
  Writer w(buf);
  w.put_bytes(payload);
  w.put_bytes("");
  w.put_bytes("tail");
  Reader r(buf.view());
  EXPECT_EQ(r.get_bytes(), payload);
  EXPECT_EQ(r.get_bytes(), "");
  EXPECT_EQ(r.get_bytes(), "tail");
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, TruncatedBytesThrow) {
  ByteBuffer buf;
  Writer w(buf);
  w.put_bytes("hello world");
  Reader r(buf.view().substr(0, 5));
  EXPECT_THROW(r.get_bytes(), DecodeError);
}

TEST(Serde, ReaderBoundsChecked) {
  Reader r(std::string_view("ab"));
  EXPECT_THROW(r.get_fixed64(), DecodeError);
  EXPECT_EQ(r.remaining(), 2u);  // failed read consumed nothing of the fixed
}

// --- record batches --------------------------------------------------------------

// Property: random record batches survive a full encode/decode cycle.
TEST(Codec, RandomRecordBatchesRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<std::string, std::string>> records;
    const uint64_t n = rng.next_below(64);
    for (uint64_t i = 0; i < n; ++i) {
      std::string key, value;
      const uint64_t klen = rng.next_below(32);
      const uint64_t vlen = rng.next_below(256);
      for (uint64_t j = 0; j < klen; ++j)
        key.push_back(static_cast<char>(rng.next_below(256)));
      for (uint64_t j = 0; j < vlen; ++j)
        value.push_back(static_cast<char>(rng.next_below(256)));
      records.emplace_back(std::move(key), std::move(value));
    }
    ByteBuffer buf;
    Writer w(buf);
    for (const auto& [k, v] : records) {
      w.put_bytes(k);
      w.put_bytes(v);
    }
    Reader r(buf.view());
    for (const auto& [k, v] : records) {
      EXPECT_EQ(r.get_bytes(), k);
      EXPECT_EQ(r.get_bytes(), v);
    }
    EXPECT_TRUE(r.at_end());
  }
}

// --- query row codec --------------------------------------------------------
// The relational layer's row format builds directly on the primitives above;
// its byte-identical differential contract needs the row codec itself to be
// an exact, strictly-validating bijection (see src/query/row.h).

namespace {

query::Schema mixed_schema() {
  query::Schema schema;
  schema.cols = {{"id", query::ColType::kI64},
                 {"x", query::ColType::kF64},
                 {"name", query::ColType::kStr}};
  return schema;
}

}  // namespace

TEST(QueryRow, RoundTripsExtremeValues) {
  const query::Schema schema = mixed_schema();
  const std::vector<query::Row> rows = {
      {query::Value::of(int64_t{0}), query::Value::of(0.0),
       query::Value::of("")},  // empty string
      {query::Value::of(std::numeric_limits<int64_t>::min()),
       query::Value::of(std::numeric_limits<double>::lowest()),
       query::Value::of(std::string(1, '\0'))},
      {query::Value::of(std::numeric_limits<int64_t>::max()),
       query::Value::of(std::numeric_limits<double>::max()),
       query::Value::of("line\nbreak\tand\x7f bytes")},
      {query::Value::of(int64_t{-1}),
       query::Value::of(std::numeric_limits<double>::denorm_min()),
       query::Value::of(std::string(4096, 'z'))},
  };
  query::Row reused;  // carries the previous row's values into each decode
  for (const query::Row& row : rows) {
    const std::string bytes = schema.encode_row(row);
    const query::Row back = schema.decode_row(bytes);
    ASSERT_EQ(back.size(), row.size());
    EXPECT_EQ(back, row);
    schema.decode_row(bytes, &reused);
    EXPECT_EQ(reused, row);
    // Injectivity in the other direction: re-encoding reproduces the bytes.
    EXPECT_EQ(schema.encode_row(back), bytes);
  }
}

TEST(QueryRow, RandomRowsRoundTripThroughRowAndKeyCodecs) {
  Rng rng(2025);
  for (int iter = 0; iter < 200; ++iter) {
    query::Schema schema;
    const uint64_t cols = 1 + rng.next_below(6);
    std::vector<query::ColType> types;
    for (uint64_t c = 0; c < cols; ++c) {
      types.push_back(static_cast<query::ColType>(rng.next_below(3)));
      schema.cols.push_back({"c" + std::to_string(c), types.back()});
    }
    query::Row row;
    std::vector<uint32_t> all_cols;
    for (uint64_t c = 0; c < cols; ++c) {
      all_cols.push_back(static_cast<uint32_t>(c));
      switch (types[c]) {
        case query::ColType::kI64:
          row.push_back(query::Value::of(static_cast<int64_t>(rng.next_u64())));
          break;
        case query::ColType::kF64:
          // Random bits, skipping NaNs (NaN != NaN under value semantics is
          // irrelevant here: Value compares f64 by bit pattern, but keep the
          // domain within what queries can produce).
          row.push_back(query::Value::of(
              static_cast<double>(static_cast<int64_t>(rng.next_u64())) / 16.0));
          break;
        case query::ColType::kStr: {
          std::string s;
          const uint64_t len = rng.next_below(32);
          for (uint64_t i = 0; i < len; ++i)
            s.push_back(static_cast<char>(rng.next_below(256)));
          row.push_back(query::Value::of(std::move(s)));
          break;
        }
      }
    }
    EXPECT_EQ(schema.decode_row(schema.encode_row(row)), row);
    // Key form: self-describing, decodes back with the type list.
    const std::string key = query::encode_key(row, all_cols);
    query::Row key_row;
    query::decode_key(key, types, &key_row);
    EXPECT_EQ(key_row, row);
  }
}

TEST(QueryRow, DecodeRejectsTruncatedAndTrailingBytes) {
  const query::Schema schema = mixed_schema();
  const query::Row row = {query::Value::of(int64_t{123456789}),
                          query::Value::of(3.25),
                          query::Value::of("hello")};
  const std::string bytes = schema.encode_row(row);

  // Every proper prefix must throw, never return a partial row.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(schema.decode_row(std::string_view(bytes.data(), len)),
                 DecodeError)
        << "prefix length " << len;
  }
  // Trailing garbage after a complete row is an error.
  EXPECT_THROW(schema.decode_row(bytes + "x"), DecodeError);

  // Key decode checks the type tags, not just the lengths.
  const std::string key = query::encode_key(row, {0});
  query::Row key_row;
  EXPECT_THROW(query::decode_key(key, {query::ColType::kStr}, &key_row),
               DecodeError);
  EXPECT_THROW(query::decode_key(key.substr(0, key.size() - 1),
                                 {query::ColType::kI64}, &key_row),
               DecodeError);
}

TEST(QueryRow, EncodeValidatesSchemaShape) {
  const query::Schema schema = mixed_schema();
  // Arity mismatch.
  EXPECT_THROW(schema.encode_row({query::Value::of(int64_t{1})}),
               std::invalid_argument);
  // Type mismatch in column 1 (expects f64).
  EXPECT_THROW(
      schema.encode_row({query::Value::of(int64_t{1}),
                         query::Value::of(int64_t{2}),
                         query::Value::of("s")}),
      std::invalid_argument);
  // Typed accessors refuse the wrong kind.
  EXPECT_THROW(query::Value::of(int64_t{1}).as_str(), std::invalid_argument);
  EXPECT_THROW(query::Value::of("s").as_f64(), std::invalid_argument);
}

// Hostile row-block counts: a count the remaining bytes cannot hold is a
// DecodeError before any row storage is allocated, never bad_alloc or
// length_error from sizing a vector to it.
TEST(QueryRow, RowBlockRejectsCountsBeyondItsBytes) {
  const query::Schema schema = mixed_schema();
  for (const uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    ByteBuffer buf;
    Writer w(buf);
    w.put_varint(count);
    std::vector<query::Row> rows;
    EXPECT_THROW(schema.decode_row_block(buf.view(), &rows), DecodeError)
        << count;
    EXPECT_TRUE(rows.empty());
  }
  // A plausible block count whose first run claims more values than follow
  // (count * 8 wraps to 0 for 2^61) fails in the run decoder the same way.
  for (const uint64_t run : {uint64_t{1} << 61, uint64_t{1} << 40}) {
    ByteBuffer buf;
    Writer w(buf);
    w.put_varint(1);
    w.put_varint(run);
    std::vector<query::Row> rows;
    EXPECT_THROW(schema.decode_row_block(buf.view(), &rows), DecodeError)
        << run;
  }
  // Same for a string run's count and for a length that would wrap the
  // payload total.
  query::Schema strings;
  strings.cols = {{"s", query::ColType::kStr}};
  for (const uint64_t bad : {uint64_t{1} << 40, ~uint64_t{0}}) {
    ByteBuffer buf;
    Writer w(buf);
    w.put_varint(2);    // rows
    w.put_varint(2);    // string run count
    w.put_varint(5);    // first length
    w.put_varint(bad);  // second length
    w.put_raw("hello", 5);
    std::vector<query::Row> rows;
    EXPECT_THROW(strings.decode_row_block(buf.view(), &rows), DecodeError)
        << bad;
  }
}

TEST(QueryRow, HexTransportRoundTripsAndRejectsGarbage) {
  std::string raw;
  for (int i = 0; i < 256; ++i) raw.push_back(static_cast<char>(i));
  std::string hex = "ab";  // appends after what is already there
  query::append_hex(raw, &hex);
  EXPECT_EQ(query::from_hex(hex), "\xab" + raw);
  EXPECT_THROW(query::from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(query::from_hex("zz"), std::invalid_argument);    // bad digit
}
