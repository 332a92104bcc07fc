// Objects of the nested data model, in the Boolean domain.
//
// A membership question (§2.1.2) is an object: a *set* of Boolean tuples.
// TupleSet keeps its tuples sorted and deduplicated so that equal objects
// compare equal and hash equally — the caching oracle and the adversarial
// oracles rely on this canonical form. The hash of the canonical tuple
// list is computed lazily on first use and cached, so Hash() is amortized
// O(1) where it matters — the caching oracle probes its map once per
// question and must not pay a full rehash each time — while the learners'
// probe loops, which build thousands of questions that are never hashed,
// pay nothing.
//
// Storage is inline for up to kInlineTuples tuples and on the heap beyond
// that, in 40 bytes (no larger than a std::vector plus the hash): a 24-byte
// union of Tuple[3] and {pointer, capacity}, the size, the on-heap and
// hash-valid flags, and the cached hash. Most questions crossing the user
// boundary at small n hold at most three tuples, so copying one — into a
// pending round, an announcement, the answered transcript or a cache key —
// allocates nothing; a larger object pays one allocation per copy.

#ifndef QHORN_BOOL_TUPLE_SET_H_
#define QHORN_BOOL_TUPLE_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/bool/tuple.h"

namespace qhorn {

/// A set of Boolean tuples (an object of the nested relation).
class TupleSet {
 public:
  /// Tuples an object holds without a heap allocation.
  static constexpr size_t kInlineTuples = 3;

  TupleSet() = default;

  /// From raw masks, in any order; duplicates are removed.
  explicit TupleSet(std::span<const Tuple> tuples);
  TupleSet(std::initializer_list<Tuple> tuples)
      : TupleSet(std::span<const Tuple>(tuples.begin(), tuples.size())) {}

  TupleSet(const TupleSet& other);
  TupleSet(TupleSet&& other) noexcept;
  /// Reuses this object's storage when it is large enough, so a question
  /// slot assigned in a loop allocates once.
  TupleSet& operator=(const TupleSet& other);
  TupleSet& operator=(TupleSet&& other) noexcept;
  ~TupleSet() { Release(); }

  /// From paper-style strings: TupleSet::Parse({"111", "011"}).
  static TupleSet Parse(const std::vector<std::string>& literals);

  /// Inserts a tuple (no-op if already present).
  void Add(Tuple t);

  /// Replaces the contents with the two-tuple object {a, b} in place,
  /// reusing the existing storage. The learners' probe questions are
  /// almost all two-tuple objects built in tight loops; this keeps their
  /// construction allocation-free.
  void AssignPair(Tuple a, Tuple b);

  /// Removes a tuple if present.
  void Remove(Tuple t);

  bool Contains(Tuple t) const;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// The canonical tuple list: sorted ascending, no duplicates.
  std::span<const Tuple> tuples() const { return {data(), size_}; }
  const Tuple* begin() const { return data(); }
  const Tuple* end() const { return data() + size_; }

  /// Bytes this object owns on the heap (0 while stored inline).
  size_t heap_bytes() const {
    return on_heap_ ? heap_.capacity * sizeof(Tuple) : 0;
  }

  /// Set union.
  TupleSet Union(const TupleSet& other) const;

  /// True iff some tuple makes every variable of `vars` true — i.e. the
  /// object satisfies the existential conjunction ∃(vars).
  bool SatisfiesConjunction(VarSet vars) const;

  /// True iff *every* mask of `conjunctions` is satisfied by some tuple.
  /// Single pass over the tuples with a still-unsatisfied bitset, instead
  /// of one full scan per mask.
  bool SatisfiesConjunctionAll(std::span<const VarSet> conjunctions) const;

  friend bool operator==(const TupleSet& a, const TupleSet& b);

  /// Stable hash of the canonical tuple list (computed lazily, then
  /// cached until the next mutation). NOTE: the lazy fill mutates shared
  /// state from a const method; concurrent first-Hash() calls on one
  /// object are a data race. A parallel oracle backend must pre-hash its
  /// questions (call Hash() once before sharing) or synchronize.
  size_t Hash() const {
    if (!hash_valid_) Rehash();
    return hash_;
  }

  /// "{111, 011}" with n-variable-wide tuples.
  std::string ToString(int n) const;

 private:
  Tuple* data() { return on_heap_ ? heap_.data : inline_; }
  const Tuple* data() const { return on_heap_ ? heap_.data : inline_; }
  size_t capacity() const { return on_heap_ ? heap_.capacity : kInlineTuples; }
  /// Makes room for `count` tuples, keeping the first size_ of them.
  void Reserve(size_t count);
  /// Frees the heap block, if any; leaves the storage fields dangling.
  void Release() {
    if (on_heap_) {
      delete[] heap_.data;
      on_heap_ = false;
    }
  }
  /// Takes `other`'s contents and storage; leaves it empty and inline.
  void StealFrom(TupleSet& other) noexcept;
  /// Replaces the contents with `count` tuples copied from `src`.
  void AssignRaw(const Tuple* src, size_t count);
  void Canonicalize();
  void Rehash() const;

  union {
    Tuple inline_[kInlineTuples] = {};
    struct {
      Tuple* data;
      size_t capacity;
    } heap_;
  };
  uint32_t size_ = 0;
  bool on_heap_ = false;
  mutable bool hash_valid_ = true;  // empty list hashes to kEmptyHash
  mutable size_t hash_ = kEmptyHash;

  // FNV-1a offset basis: the hash of the empty tuple list.
  static constexpr size_t kEmptyHash =
      static_cast<size_t>(1469598103934665603ULL);
};

static_assert(sizeof(TupleSet) <= 40,
              "every parked question and cache key holds a TupleSet");

/// Hash functor for unordered containers keyed by objects.
struct TupleSetHash {
  size_t operator()(const TupleSet& s) const { return s.Hash(); }
};

}  // namespace qhorn

#endif  // QHORN_BOOL_TUPLE_SET_H_
