#include "engine/bin.h"

#include <algorithm>

namespace hamr::engine {

namespace {

constexpr size_t kCountSlotBytes = 5;

size_t varint_size(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void append_varint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Writes `v` as exactly kCountSlotBytes varint bytes at `pos` (continuation
// bits forced on the leading four so short values still fill the slot).
void patch_padded_varint(std::string* out, size_t pos, uint64_t v) {
  for (size_t i = 0; i + 1 < kCountSlotBytes; ++i) {
    (*out)[pos + i] = static_cast<char>(((v >> (7 * i)) & 0x7f) | 0x80);
  }
  (*out)[pos + kCountSlotBytes - 1] =
      static_cast<char>((v >> (7 * (kCountSlotBytes - 1))) & 0x7f);
}

}  // namespace

BinBuilder::BinBuilder(uint64_t job_epoch, EdgeId edge)
    : job_epoch_(job_epoch), edge_(edge), open_(true) {}

void BinBuilder::open(uint64_t job_epoch, EdgeId edge, BufferPool* pool) {
  job_epoch_ = job_epoch;
  edge_ = edge;
  if (pool != nullptr) pool_ = pool;
  open_ = true;
}

void BinBuilder::ensure_header() {
  if (header_written_) return;
  if (payload_.empty() && pool_ != nullptr) payload_ = pool_->acquire();
  append_varint(&payload_, job_epoch_);
  append_varint(&payload_, edge_);
  count_pos_ = payload_.size();
  payload_.append(kCountSlotBytes, '\0');
  header_written_ = true;
}

void BinBuilder::add(std::string_view key, std::string_view value) {
  ensure_header();
  // One capacity check per record: grow once (geometrically) for the whole
  // record, so the appends below never reallocate midway through it.
  const size_t need = varint_size(key.size()) + key.size() +
                      varint_size(value.size()) + value.size();
  if (payload_.capacity() - payload_.size() < need) {
    payload_.reserve(std::max(payload_.size() + need, 2 * payload_.capacity()));
  }
  append_varint(&payload_, key.size());
  payload_.append(key.data(), key.size());
  append_varint(&payload_, value.size());
  payload_.append(value.data(), value.size());
  ++count_;
}

std::string BinBuilder::seal() {
  ensure_header();  // a taken-but-empty bin still carries a valid header
  patch_padded_varint(&payload_, count_pos_, count_);
  std::string out = std::move(payload_);
  payload_.clear();
  header_written_ = false;
  count_ = 0;
  return out;
}

std::string BinBuilder::take(BufferPool* pool) {
  if (pool != nullptr) pool_ = pool;
  return seal();
}

std::shared_ptr<std::string> BinBuilder::take_shared(
    const std::shared_ptr<BufferPool>& pool) {
  if (pool != nullptr) pool_ = pool.get();
  return to_shared(pool, seal());
}

BinView::BinView(std::string_view data) : data_(data) {
  serde::Reader r(data_);
  job_epoch_ = r.get_varint();
  edge_ = static_cast<EdgeId>(r.get_varint());
  count_ = r.get_varint();
  records_start_ = r.position();
  pos_ = records_start_;
}

bool BinView::next(KvPair* out) {
  if (seen_ >= count_) return false;
  size_t pos = pos_;
  out->key = field_at(&pos);
  out->value = field_at(&pos);
  pos_ = pos;
  ++seen_;
  return true;
}

std::string_view BinView::field_at(size_t* pos) const {
  // Fast path: a single-byte length whose bytes lie inside the bin.
  const size_t at = *pos;
  if (at < data_.size()) {
    const auto len = static_cast<uint8_t>(data_[at]);
    if (len < 0x80 && len < data_.size() - at) {
      *pos = at + 1 + len;
      return std::string_view(data_.data() + at + 1, len);
    }
  }
  // Anything else takes the checked reader, which throws serde::DecodeError
  // on a truncated or overlong varint and on a length past the end.
  serde::Reader r(data_.substr(at));
  const std::string_view field = r.get_bytes();
  *pos = at + r.position();
  return field;
}

void BinView::rewind() {
  pos_ = records_start_;
  seen_ = 0;
}

}  // namespace hamr::engine
