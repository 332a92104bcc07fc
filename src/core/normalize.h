// Normalization under qhorn's equivalence rules (§2.1.1) and the canonical
// form used to decide semantic equivalence (Proposition 4.1).
//
//   R1: an existential conjunction dominates conjunctions over subsets of
//       its variables.
//   R2: a universal Horn expression ∀B→h dominates ∀B'→h for B' ⊇ B; the
//       dominated expression contributes only its guarantee conjunction.
//   R3: conjunctions absorb heads implied by universal Horn expressions
//       (the Horn closure), e.g. ∀x1→h ∃x1x3 ≡ ∀x1→h ∃x1x3h.
//
// The canonical form of a query is:
//   * per universal head, the minimal antichain of its bodies (R2), and
//   * the maximal antichain (R1) of the R3-closures of all existential
//     conjunctions plus the guarantee conjunctions of *all* universal Horn
//     expressions (dominated universal expressions reduce to guarantees).
//
// Two role-preserving qhorn queries are semantically equivalent iff their
// canonical forms are equal; this is Proposition 4.1 restated over
// distinguishing tuples, and is property-tested against brute-force object
// enumeration in tests/normalize_test.cc.

#ifndef QHORN_CORE_NORMALIZE_H_
#define QHORN_CORE_NORMALIZE_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/query.h"

namespace qhorn {

/// Keeps the ⊆-minimal sets (drops any set that strictly contains another;
/// deduplicates). Order: ascending by popcount then value.
std::vector<VarSet> MinimalAntichain(std::vector<VarSet> sets);

/// Keeps the ⊆-maximal sets (drops any set contained in another).
std::vector<VarSet> MaximalAntichain(std::vector<VarSet> sets);

/// Canonical form of a qhorn query. Equality is semantic equivalence for
/// role-preserving queries.
struct CanonicalForm {
  int n = 0;
  /// head → minimal antichain of bodies. A bodyless expression appears as
  /// the single body {} (it dominates every other body for that head).
  std::map<int, std::vector<VarSet>> universal;
  /// Maximal antichain of R3-closed conjunction variable sets (includes
  /// guarantee-clause closures), sorted.
  std::vector<VarSet> existential;

  friend bool operator==(const CanonicalForm& a, const CanonicalForm& b) {
    return a.n == b.n && a.universal == b.universal &&
           a.existential == b.existential;
  }

  /// Stable FNV-1a hash over the canonical structure, cached after the
  /// first call (the TupleSet idiom: forms are built once, then probed
  /// repeatedly as dedup keys). Callers that mutate a form after hashing
  /// must not reuse it as a key. NOTE: like
  /// TupleSet::Hash, the lazy fill writes shared state from a const
  /// method; hash before sharing a form across threads.
  size_t Hash() const;

  /// Human-readable rendering (for test failure messages).
  std::string ToString() const;

 private:
  mutable size_t hash_ = 0;
  mutable bool hash_valid_ = false;
};

/// Hash functor for unordered containers keyed by canonical forms, such as
/// the enumeration dedup.
struct CanonicalFormHash {
  size_t operator()(const CanonicalForm& f) const { return f.Hash(); }
};

/// Computes the canonical form.
CanonicalForm Canonicalize(const Query& q);

/// Rebuilds a normalized Query from a canonical form: one universal Horn
/// expression per dominant body plus one existential conjunction per
/// dominant closed conjunction.
Query ToQuery(const CanonicalForm& form);

/// Convenience: Canonicalize + ToQuery.
Query Normalize(const Query& q);

/// Semantic equivalence via canonical forms (Proposition 4.1).
bool Equivalent(const Query& a, const Query& b);

/// Ground-truth semantic equivalence by evaluating both queries on every
/// object over n variables (2^(2^n) objects) — exponential, for tests with
/// n ≤ 4 only. `opts` selects guarantee handling.
bool BruteForceEquivalent(const Query& a, const Query& b,
                          const EvalOptions& opts = EvalOptions());

/// Finds a witness object on which the two queries disagree, or an empty
/// optional-like flag (returns false) if none exists. n ≤ 4.
bool FindDistinguishingObject(const Query& a, const Query& b,
                              const EvalOptions& opts, TupleSet* witness);

}  // namespace qhorn

#endif  // QHORN_CORE_NORMALIZE_H_
