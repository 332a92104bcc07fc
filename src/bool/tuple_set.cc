#include "src/bool/tuple_set.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace qhorn {

TupleSet::TupleSet(std::span<const Tuple> tuples) {
  AssignRaw(tuples.data(), tuples.size());
  Canonicalize();
}

TupleSet::TupleSet(const TupleSet& other)
    : hash_valid_(other.hash_valid_), hash_(other.hash_) {
  AssignRaw(other.data(), other.size_);
}

TupleSet::TupleSet(TupleSet&& other) noexcept { StealFrom(other); }

TupleSet& TupleSet::operator=(const TupleSet& other) {
  if (this != &other) {
    AssignRaw(other.data(), other.size_);
    hash_valid_ = other.hash_valid_;
    hash_ = other.hash_;
  }
  return *this;
}

TupleSet& TupleSet::operator=(TupleSet&& other) noexcept {
  if (this != &other) {
    Release();
    StealFrom(other);
  }
  return *this;
}

void TupleSet::StealFrom(TupleSet& other) noexcept {
  size_ = other.size_;
  on_heap_ = other.on_heap_;
  hash_valid_ = other.hash_valid_;
  hash_ = other.hash_;
  if (on_heap_) {
    heap_ = other.heap_;
    other.on_heap_ = false;
  } else {
    std::copy_n(other.inline_, size_, inline_);
  }
  other.size_ = 0;
  other.hash_valid_ = true;
  other.hash_ = kEmptyHash;
}

void TupleSet::Reserve(size_t count) {
  if (count <= capacity()) return;
  QHORN_CHECK(count <= UINT32_MAX);
  const size_t grown = std::max(count, 2 * capacity());
  Tuple* block = new Tuple[grown];
  std::copy_n(data(), size_, block);
  Release();
  heap_.data = block;
  heap_.capacity = grown;
  on_heap_ = true;
}

void TupleSet::AssignRaw(const Tuple* src, size_t count) {
  if (count > capacity()) {
    // No need to keep the old contents: free first, then allocate exactly.
    size_ = 0;
    Release();
    Reserve(count);
  }
  std::copy_n(src, count, data());
  size_ = static_cast<uint32_t>(count);
}

TupleSet TupleSet::Parse(const std::vector<std::string>& literals) {
  std::vector<Tuple> tuples;
  tuples.reserve(literals.size());
  for (const std::string& lit : literals) tuples.push_back(ParseTuple(lit));
  return TupleSet(tuples);
}

void TupleSet::Canonicalize() {
  Tuple* first = data();
  std::sort(first, first + size_);
  size_ = static_cast<uint32_t>(std::unique(first, first + size_) - first);
  hash_valid_ = false;
}

void TupleSet::Rehash() const {
  // FNV-1a over the canonical tuple list.
  uint64_t h = kEmptyHash;
  for (Tuple t : *this) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (t >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  hash_ = static_cast<size_t>(h);
  hash_valid_ = true;
}

void TupleSet::AssignPair(Tuple a, Tuple b) {
  // Inline capacity is at least two, so this never allocates.
  Tuple* out = data();
  if (a == b) {
    out[0] = a;
    size_ = 1;
  } else {
    out[0] = std::min(a, b);
    out[1] = std::max(a, b);
    size_ = 2;
  }
  hash_valid_ = false;
}

void TupleSet::Add(Tuple t) {
  const Tuple* it = std::lower_bound(begin(), end(), t);
  if (it != end() && *it == t) return;
  const size_t pos = static_cast<size_t>(it - begin());
  Reserve(size_ + 1);
  Tuple* first = data();
  std::copy_backward(first + pos, first + size_, first + size_ + 1);
  first[pos] = t;
  ++size_;
  hash_valid_ = false;
}

void TupleSet::Remove(Tuple t) {
  const Tuple* it = std::lower_bound(begin(), end(), t);
  if (it == end() || *it != t) return;
  Tuple* first = data();
  const size_t pos = static_cast<size_t>(it - begin());
  std::copy(first + pos + 1, first + size_, first + pos);
  --size_;
  hash_valid_ = false;
}

bool TupleSet::Contains(Tuple t) const {
  return std::binary_search(begin(), end(), t);
}

TupleSet TupleSet::Union(const TupleSet& other) const {
  TupleSet result;
  result.Reserve(size_ + other.size_);
  Tuple* out = result.data();
  result.size_ = static_cast<uint32_t>(
      std::set_union(begin(), end(), other.begin(), other.end(), out) - out);
  result.hash_valid_ = false;
  return result;
}

bool TupleSet::SatisfiesConjunction(VarSet vars) const {
  for (Tuple t : *this) {
    if (IsSubset(vars, t)) return true;
  }
  return false;
}

bool TupleSet::SatisfiesConjunctionAll(
    std::span<const VarSet> conjunctions) const {
  size_t count = conjunctions.size();
  if (count == 0) return true;
  // Still-unsatisfied bitset, one word per 64 masks; the scan stops as soon
  // as every mask has found a witness tuple.
  size_t words = (count + 63) / 64;
  constexpr size_t kStackWords = 8;  // 512 conjunctions
  uint64_t stack[kStackWords];
  std::vector<uint64_t> heap;
  uint64_t* unsat = stack;
  if (words > kStackWords) {
    heap.assign(words, ~uint64_t{0});
    unsat = heap.data();
  } else {
    std::fill(stack, stack + words, ~uint64_t{0});
  }
  if (count % 64 != 0) unsat[words - 1] = (uint64_t{1} << (count % 64)) - 1;
  size_t remaining = count;
  for (Tuple t : *this) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = unsat[w];
      while (bits != 0) {
        uint64_t low = bits & (~bits + 1);
        size_t idx = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (IsSubset(conjunctions[idx], t)) {
          unsat[w] &= ~low;
          --remaining;
        }
        bits &= bits - 1;
      }
    }
    if (remaining == 0) return true;
  }
  return remaining == 0;
}

std::string TupleSet::ToString(int n) const {
  std::string out = "{";
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += FormatTuple(data()[i], n);
  }
  out += "}";
  return out;
}

}  // namespace qhorn
