#include "src/core/normalize.h"

#include <algorithm>

#include "src/core/compiled_query.h"
#include "src/util/check.h"

namespace qhorn {

namespace {

bool PopcountLess(VarSet a, VarSet b) {
  int pa = Popcount(a);
  int pb = Popcount(b);
  return pa != pb ? pa < pb : a < b;
}

}  // namespace

std::vector<VarSet> MinimalAntichain(std::vector<VarSet> sets) {
  std::sort(sets.begin(), sets.end(), PopcountLess);
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<VarSet> kept;
  for (VarSet s : sets) {
    bool dominated = false;
    for (VarSet k : kept) {
      if (IsSubset(k, s)) {  // an existing smaller body is contained in s
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(s);
  }
  return kept;
}

std::vector<VarSet> MaximalAntichain(std::vector<VarSet> sets) {
  std::sort(sets.begin(), sets.end(), PopcountLess);
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<VarSet> kept;
  // Scan from largest to smallest; keep sets not contained in a kept set.
  for (auto it = sets.rbegin(); it != sets.rend(); ++it) {
    bool dominated = false;
    for (VarSet k : kept) {
      if (IsSubset(*it, k)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(*it);
  }
  std::sort(kept.begin(), kept.end(), PopcountLess);
  return kept;
}

CanonicalForm Canonicalize(const Query& q) {
  CanonicalForm form;
  form.n = q.n();

  // R2: per-head minimal antichains of universal bodies.
  std::map<int, std::vector<VarSet>> bodies;
  for (const UniversalHorn& u : q.universal()) {
    bodies[u.head].push_back(u.body);
  }
  for (auto& [head, list] : bodies) {
    form.universal[head] = MinimalAntichain(std::move(list));
  }

  // Existential pool: user conjunctions plus every guarantee clause. R3
  // closes each under the universal Horn expressions; R1 keeps the maximal
  // antichain.
  std::vector<VarSet> pool;
  for (const ExistentialConj& e : q.existential()) pool.push_back(e.vars);
  for (const UniversalHorn& u : q.universal()) {
    pool.push_back(u.GuaranteeVars());
  }
  for (VarSet& s : pool) s = q.HornClosure(s);
  form.existential = MaximalAntichain(std::move(pool));
  return form;
}

Query ToQuery(const CanonicalForm& form) {
  Query q(form.n);
  for (const auto& [head, list] : form.universal) {
    for (VarSet body : list) q.AddUniversal(body, head);
  }
  for (VarSet vars : form.existential) q.AddExistential(vars);
  return q;
}

Query Normalize(const Query& q) { return ToQuery(Canonicalize(q)); }

bool Equivalent(const Query& a, const Query& b) {
  return Canonicalize(a) == Canonicalize(b);
}

size_t CanonicalForm::Hash() const {
  if (hash_valid_) return hash_;
  // FNV-1a over the structure in its canonical iteration order. Lengths
  // are mixed in so ({a,b},{}) and ({a},{b}) cannot collide structurally.
  constexpr size_t kPrime = 1099511628211ULL;
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (byte * 8)) & 0xff;
      h *= kPrime;
    }
  };
  mix(static_cast<uint64_t>(n));
  mix(universal.size());
  for (const auto& [head, bodies] : universal) {
    mix(static_cast<uint64_t>(head));
    mix(bodies.size());
    for (VarSet body : bodies) mix(body);
  }
  mix(existential.size());
  for (VarSet vars : existential) mix(vars);
  hash_ = h;
  hash_valid_ = true;
  return hash_;
}

std::string CanonicalForm::ToString() const {
  std::string out = "n=" + std::to_string(n) + " |";
  for (const auto& [head, list] : universal) {
    for (VarSet body : list) {
      out += " " + UniversalHorn{body, head}.ToString();
    }
  }
  out += " |";
  for (VarSet vars : existential) {
    out += " " + ExistentialConj{vars}.ToString();
  }
  return out;
}

bool FindDistinguishingObject(const Query& a, const Query& b,
                              const EvalOptions& opts, TupleSet* witness) {
  QHORN_CHECK(a.n() == b.n());
  int n = a.n();
  QHORN_CHECK_MSG(n <= 4, "brute-force enumeration is 2^(2^n); n=" << n);
  // Compile both queries once; the scan evaluates up to 2^(2^n) objects.
  CompiledQuery ca(a, opts);
  CompiledQuery cb(b, opts);
  uint64_t num_tuples = uint64_t{1} << n;
  uint64_t num_objects = uint64_t{1} << num_tuples;
  Tuple tuples[16];  // n ≤ 4 so an object has at most 16 tuples
  for (uint64_t bits = 0; bits < num_objects; ++bits) {
    size_t count = 0;
    for (uint64_t t = 0; t < num_tuples; ++t) {
      if ((bits >> t) & 1) tuples[count++] = t;
    }
    // Tuples are emitted in ascending order — already canonical.
    if (ca.EvaluateTuples(tuples, count) != cb.EvaluateTuples(tuples, count)) {
      if (witness != nullptr) {
        *witness = TupleSet(std::vector<Tuple>(tuples, tuples + count));
      }
      return true;
    }
  }
  return false;
}

bool BruteForceEquivalent(const Query& a, const Query& b,
                          const EvalOptions& opts) {
  return !FindDistinguishingObject(a, b, opts, nullptr);
}

}  // namespace qhorn
