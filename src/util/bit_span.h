// Bit-packed answer storage for oracle rounds.
//
// IsAnswerBatch used to return answers through a std::vector<bool>* that
// every decorator cleared, reserved and refilled — one allocation per round
// per layer, and ~2× the cost of a plain IsAnswer on one-question rounds
// (the ROADMAP's "one-question round plumbing" item). BitSpan is a
// non-owning mutable view over caller-provided bit storage: the caller
// sizes a reusable BitVec once per probe loop, hands out spans, and the
// whole oracle stack writes verdict bits in place with zero allocation.
//
// Concurrency contract: Set() is a non-atomic read-modify-write of a
// 64-bit word, so a span has one writer at a time.

#ifndef QHORN_UTIL_BIT_SPAN_H_
#define QHORN_UTIL_BIT_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qhorn {

/// Mutable view over `size` bits starting `offset` bits into `words`.
class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(uint64_t* words, size_t offset, size_t size)
      : words_(words), offset_(offset), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Get(size_t i) const {
    size_t b = offset_ + i;
    return (words_[b >> 6] >> (b & 63)) & 1;
  }

  void Set(size_t i, bool value) {
    size_t b = offset_ + i;
    uint64_t mask = uint64_t{1} << (b & 63);
    if (value) {
      words_[b >> 6] |= mask;
    } else {
      words_[b >> 6] &= ~mask;
    }
  }

  /// The suffix starting at bit `pos` (pos ≤ size()).
  BitSpan Subspan(size_t pos) const {
    return BitSpan(words_, offset_ + pos, size_ - pos);
  }

 private:
  uint64_t* words_ = nullptr;
  size_t offset_ = 0;
  size_t size_ = 0;
};

/// Owning, reusable bit buffer. A probe loop keeps one BitVec alive and
/// calls Prepare(k) per round: after warm-up no round allocates.
class BitVec {
 public:
  /// Resizes to `size` bits and returns the full span. Contents are
  /// *unspecified* until written: the IsAnswerBatch contract is that every
  /// answer bit is set before the round returns, so zero-filling here
  /// would only re-dirty the cache line on the hottest (one-question)
  /// rounds.
  BitSpan Prepare(size_t size) {
    size_ = size;
    size_t words = (size + 63) >> 6;
    if (words_.size() < words) words_.resize(words);
    return span();
  }

  BitSpan span() { return BitSpan(words_.data(), 0, size_); }

  size_t size() const { return size_; }
  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  void Set(size_t i, bool value) {
    uint64_t mask = uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_UTIL_BIT_SPAN_H_
