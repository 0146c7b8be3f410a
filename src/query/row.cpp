#include "query/row.h"

#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "serde/batch.h"

namespace hamr::query {

const char* col_type_name(ColType type) {
  switch (type) {
    case ColType::kI64: return "i64";
    case ColType::kF64: return "f64";
    case ColType::kStr: return "str";
  }
  return "?";
}

Value Value::of(int64_t v) {
  Value value;
  value.type = ColType::kI64;
  value.i = v;
  return value;
}

Value Value::of(double v) {
  Value value;
  value.type = ColType::kF64;
  value.f = v;
  return value;
}

Value Value::of(std::string v) {
  Value value;
  value.type = ColType::kStr;
  value.s = std::move(v);
  return value;
}

int64_t Value::as_i64() const {
  if (type != ColType::kI64) throw std::invalid_argument("value is not i64");
  return i;
}

double Value::as_f64() const {
  if (type != ColType::kF64) throw std::invalid_argument("value is not f64");
  return f;
}

const std::string& Value::as_str() const {
  if (type != ColType::kStr) throw std::invalid_argument("value is not str");
  return s;
}

bool Value::operator==(const Value& other) const {
  if (type != other.type) return false;
  switch (type) {
    case ColType::kI64: return i == other.i;
    case ColType::kF64: {
      uint64_t a, b;
      std::memcpy(&a, &f, 8);
      std::memcpy(&b, &other.f, 8);
      return a == b;
    }
    case ColType::kStr: return s == other.s;
  }
  return false;
}

int Schema::index_of(std::string_view name) const {
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].name == name) return static_cast<int>(c);
  }
  return -1;
}

void encode_value(const Value& value, ColType expect, serde::Writer* writer) {
  if (value.type != expect) {
    throw std::invalid_argument(std::string("row value is ") +
                                col_type_name(value.type) + ", schema says " +
                                col_type_name(expect));
  }
  switch (expect) {
    case ColType::kI64:
      writer->put_zigzag(value.i);
      break;
    case ColType::kF64:
      writer->put_double(value.f);
      break;
    case ColType::kStr:
      writer->put_bytes(value.s);
      break;
  }
}

void decode_value(ColType type, serde::Reader* reader, Value* value) {
  value->type = type;
  switch (type) {
    case ColType::kI64:
      value->i = reader->get_zigzag();
      value->s.clear();
      return;
    case ColType::kF64:
      value->f = reader->get_double();
      value->s.clear();
      return;
    case ColType::kStr:
      value->s.assign(reader->get_bytes());
      return;
  }
  throw serde::DecodeError("unknown column type");
}

void Schema::encode_row(const Row& row, serde::Writer* writer) const {
  if (row.size() != cols.size()) {
    throw std::invalid_argument("row arity " + std::to_string(row.size()) +
                                " vs schema arity " + std::to_string(cols.size()));
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    encode_value(row[c], cols[c].type, writer);
  }
}

std::string Schema::encode_row(const Row& row) const {
  ByteBuffer buf;
  serde::Writer writer(buf);
  encode_row(row, &writer);
  return std::string(buf.view());
}

void Schema::decode_row(std::string_view bytes, Row* row) const {
  serde::Reader reader(bytes);
  row->resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    decode_value(cols[c].type, &reader, &(*row)[c]);
  }
  if (!reader.at_end()) {
    throw serde::DecodeError("trailing bytes after row: " +
                             std::to_string(reader.remaining()));
  }
}

Row Schema::decode_row(std::string_view bytes) const {
  Row row;
  decode_row(bytes, &row);
  return row;
}

void Schema::encode_row_block(const Row* rows, size_t count,
                              serde::Writer* writer) const {
  for (size_t i = 0; i < count; ++i) {
    if (rows[i].size() != cols.size()) {
      throw std::invalid_argument("row arity " + std::to_string(rows[i].size()) +
                                  " vs schema arity " +
                                  std::to_string(cols.size()));
    }
  }
  writer->put_varint(count);
  std::vector<uint64_t> u64s;
  std::vector<double> f64s;
  std::vector<std::string_view> views;
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColType type = cols[c].type;
    for (size_t i = 0; i < count; ++i) {
      if (rows[i][c].type != type) {
        throw std::invalid_argument(std::string("row value is ") +
                                    col_type_name(rows[i][c].type) +
                                    ", schema says " + col_type_name(type));
      }
    }
    switch (type) {
      case ColType::kI64:
        u64s.clear();
        u64s.reserve(count);
        for (size_t i = 0; i < count; ++i) {
          u64s.push_back(static_cast<uint64_t>(rows[i][c].i));
        }
        serde::put_u64_run(*writer, u64s);
        break;
      case ColType::kF64:
        f64s.clear();
        f64s.reserve(count);
        for (size_t i = 0; i < count; ++i) f64s.push_back(rows[i][c].f);
        serde::put_f64_run(*writer, f64s);
        break;
      case ColType::kStr:
        views.clear();
        views.reserve(count);
        for (size_t i = 0; i < count; ++i) views.push_back(rows[i][c].s);
        serde::put_string_run(*writer, views);
        break;
    }
  }
}

std::string Schema::encode_row_block(const std::vector<Row>& rows) const {
  ByteBuffer buf;
  serde::Writer writer(buf);
  encode_row_block(rows.data(), rows.size(), &writer);
  return std::string(buf.view());
}

void Schema::decode_row_block(std::string_view bytes,
                              std::vector<Row>* rows) const {
  serde::Reader reader(bytes);
  const uint64_t count = reader.get_varint();
  // Every column run spends at least one byte per row.
  if (!cols.empty() && count > reader.remaining()) {
    throw serde::DecodeError("row block count " + std::to_string(count) +
                             " exceeds its " +
                             std::to_string(reader.remaining()) + " bytes");
  }
  rows->resize(count);
  for (Row& row : *rows) row.resize(cols.size());
  Scratch<std::vector<uint64_t>> u64s;
  Scratch<std::vector<double>> f64s;
  Scratch<std::vector<std::string_view>> views;
  for (size_t c = 0; c < cols.size(); ++c) {
    switch (cols[c].type) {
      case ColType::kI64:
        u64s->clear();
        serde::get_u64_run(reader, u64s.get());
        if (u64s->size() != count) throw serde::DecodeError("i64 run count");
        for (uint64_t i = 0; i < count; ++i) {
          Value& value = (*rows)[i][c];
          value.type = ColType::kI64;
          value.i = static_cast<int64_t>((*u64s)[i]);
          value.s.clear();
        }
        break;
      case ColType::kF64:
        f64s->clear();
        serde::get_f64_run(reader, f64s.get());
        if (f64s->size() != count) throw serde::DecodeError("f64 run count");
        for (uint64_t i = 0; i < count; ++i) {
          Value& value = (*rows)[i][c];
          value.type = ColType::kF64;
          value.f = (*f64s)[i];
          value.s.clear();
        }
        break;
      case ColType::kStr:
        views->clear();
        serde::get_string_run(reader, views.get());
        if (views->size() != count) throw serde::DecodeError("str run count");
        for (uint64_t i = 0; i < count; ++i) {
          Value& value = (*rows)[i][c];
          value.type = ColType::kStr;
          value.s.assign((*views)[i]);
        }
        break;
    }
  }
  if (!reader.at_end()) {
    throw serde::DecodeError("trailing bytes after row block: " +
                             std::to_string(reader.remaining()));
  }
}

std::string Schema::to_string() const {
  std::string out;
  for (const Column& col : cols) {
    if (!out.empty()) out += ", ";
    out += col.name;
    out += ':';
    out += col_type_name(col.type);
  }
  return out;
}

void encode_key_value(const Value& value, serde::Writer* writer) {
  writer->put_u8(static_cast<uint8_t>(value.type));
  encode_value(value, value.type, writer);
}

void encode_key(const Row& row, const std::vector<uint32_t>& cols,
                serde::Writer* writer) {
  for (uint32_t c : cols) encode_key_value(row.at(c), writer);
}

std::string encode_key(const Row& row, const std::vector<uint32_t>& cols) {
  ByteBuffer buf;
  serde::Writer writer(buf);
  encode_key(row, cols, &writer);
  return std::string(buf.view());
}

void decode_key(std::string_view bytes, const std::vector<ColType>& types,
                Row* row) {
  serde::Reader reader(bytes);
  row->resize(types.size());
  for (size_t k = 0; k < types.size(); ++k) {
    const uint8_t tag = reader.get_u8();
    if (tag != static_cast<uint8_t>(types[k])) {
      throw serde::DecodeError("key type tag mismatch");
    }
    decode_value(types[k], &reader, &(*row)[k]);
  }
  if (!reader.at_end()) throw serde::DecodeError("trailing bytes after key");
}

void append_hex(std::string_view bytes, std::string* out) {
  static const char* kDigits = "0123456789abcdef";
  out->reserve(out->size() + bytes.size() * 2);
  for (unsigned char b : bytes) {
    out->push_back(kDigits[b >> 4]);
    out->push_back(kDigits[b & 0xf]);
  }
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd hex length");
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) throw std::invalid_argument("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace hamr::query
