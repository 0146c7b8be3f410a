// Typed row format for the relational query layer (DESIGN.md §13).
//
// A Schema is an ordered list of named, typed columns (i64 / f64 / string);
// a Row holds one Value per column. Rows cross node boundaries in schema
// order using the serde:: primitives - zigzag varint for i64, raw IEEE-754
// bits for f64, length-prefixed bytes for strings - so the encoding is
// compact, strictly bounds-checked on decode, and *injective*: two rows of
// one schema encode to the same bytes iff they are equal. The differential
// test suite leans on injectivity: query results are canonicalized as sorted
// encoded-row byte strings and compared byte-for-byte between the engine
// path and the reference evaluator.
//
// Shuffle and group keys use the self-describing encode_key() form (a type
// byte before each value), so key equality on raw bytes is value equality
// across the hash-partitioner, the FlatAccTable, and the reference
// evaluator's hash maps - one definition of "same key" everywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serde/serde.h"

namespace hamr::query {

enum class ColType : uint8_t { kI64 = 0, kF64 = 1, kStr = 2 };

const char* col_type_name(ColType type);

// One typed cell. Only the member selected by `type` is meaningful; the
// typed accessors throw std::invalid_argument on a kind mismatch so plan
// bugs surface as errors, not as reads of stale storage.
struct Value {
  ColType type = ColType::kI64;
  int64_t i = 0;
  double f = 0;
  std::string s;

  static Value of(int64_t v);
  static Value of(double v);
  static Value of(std::string v);
  static Value of(const char* v) { return of(std::string(v)); }

  int64_t as_i64() const;
  double as_f64() const;
  const std::string& as_str() const;

  // f64 compares by bit pattern: Value equality is representation equality,
  // matching the byte-identical contract of the differential tests.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
};

using Row = std::vector<Value>;

struct Column {
  std::string name;
  ColType type = ColType::kI64;
};

struct Schema {
  std::vector<Column> cols;

  size_t size() const { return cols.size(); }
  // -1 when absent.
  int index_of(std::string_view name) const;

  // Appends the row in schema order. Throws std::invalid_argument on an
  // arity or column-type mismatch.
  void encode_row(const Row& row, serde::Writer* writer) const;
  std::string encode_row(const Row& row) const;

  // Decodes one row that must span exactly `bytes`; throws
  // serde::DecodeError on truncation or trailing bytes. The out-parameter
  // form overwrites *row in place, reusing its Value storage.
  void decode_row(std::string_view bytes, Row* row) const;
  Row decode_row(std::string_view bytes) const;

  // Column-major batch codec for staged shards (serde/batch.h runs): varint
  // row count, then each column as one contiguous run - i64/f64 as raw
  // fixed-width runs moved with a single memcpy, strings as a length block
  // plus one bounds-checked payload block. Pays one check per column per
  // block instead of one per cell; same arity/type errors as encode_row.
  // Note: this is a *block* layout, distinct from the injective per-row
  // encoding the differential tests canonicalize with.
  void encode_row_block(const Row* rows, size_t count,
                        serde::Writer* writer) const;
  std::string encode_row_block(const std::vector<Row>& rows) const;
  // Resizes *rows to the block's row count and overwrites them in place,
  // reusing their Row/Value storage. A count the block's remaining bytes
  // cannot hold is rejected before anything is allocated.
  void decode_row_block(std::string_view bytes, std::vector<Row>* rows) const;

  std::string to_string() const;  // "name:type, ..." for error messages
};

// One value in the row encoding, without a type byte. encode_value throws
// std::invalid_argument when value.type differs from `type`; decode_value
// overwrites *value in place (a reused string keeps its capacity) and
// throws serde::DecodeError on truncation.
void encode_value(const Value& value, ColType type, serde::Writer* writer);
void decode_value(ColType type, serde::Reader* reader, Value* value);

// Self-describing single-value encoding (type byte + row encoding of the
// value) used for shuffle/group keys. Injective across types: an i64 5 and
// an f64 5.0 never collide.
void encode_key_value(const Value& value, serde::Writer* writer);

// Concatenated encode_key_value of row[c] for each c in cols.
void encode_key(const Row& row, const std::vector<uint32_t>& cols,
                serde::Writer* writer);
std::string encode_key(const Row& row, const std::vector<uint32_t>& cols);

// Inverse of encode_key for known key-column types, overwriting *row in
// place like Schema::decode_row; throws serde::DecodeError on truncation or
// a type-byte mismatch.
void decode_key(std::string_view bytes, const std::vector<ColType>& types,
                Row* row);

// Hex transport for encoded rows in sink output files (rows may contain
// arbitrary string bytes, including newlines and tabs). Appends to *out.
void append_hex(std::string_view bytes, std::string* out);
std::string from_hex(std::string_view hex);  // throws std::invalid_argument

// Reused per-thread storage for the per-row paths. A Scratch<T> leases the
// next free T from its thread's stack and hands it back on destruction, so
// a nested lease on the same thread gets its own object. That is the rule
// every user relies on: a fused downstream stage may encode or decode rows
// inside ctx.emit() while the outer stage's scratch is still live. Objects
// keep their contents and capacity across leases (a thread holds its
// high-water mark until it exits); users reset what they use.
template <typename T>
class Scratch {
 public:
  Scratch() : stack_(stack()) {
    if (stack_.depth == stack_.items.size()) {
      stack_.items.push_back(std::make_unique<T>());
    }
    item_ = stack_.items[stack_.depth++].get();
  }
  ~Scratch() { --stack_.depth; }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator*() const { return *item_; }
  T* operator->() const { return item_; }
  T* get() const { return item_; }

 private:
  struct Stack {
    std::vector<std::unique_ptr<T>> items;  // unique_ptr: stable across growth
    size_t depth = 0;
  };
  static Stack& stack() {
    thread_local Stack s;
    return s;
  }

  Stack& stack_;
  T* item_ = nullptr;
};

// A cleared scratch ByteBuffer with a Writer over it.
class ScratchWriter {
 public:
  ScratchWriter() : writer_(*buf_) { buf_->clear(); }

  serde::Writer* writer() { return &writer_; }
  size_t size() const { return buf_->size(); }
  std::string_view view() const { return buf_->view(); }

 private:
  Scratch<ByteBuffer> buf_;
  serde::Writer writer_;
};

}  // namespace hamr::query
