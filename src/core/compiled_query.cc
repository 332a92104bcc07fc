#include "src/core/compiled_query.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/core/normalize.h"
#include "src/util/check.h"

namespace qhorn {

namespace {

bool PopcountLess(uint64_t a, uint64_t b) {
  int pa = Popcount(a);
  int pb = Popcount(b);
  return pa != pb ? pa < pb : a < b;
}

}  // namespace

CompiledQuery::CompiledQuery(const Query& query, const EvalOptions& opts)
    : n_(query.n()), opts_(opts) {
  // R2: per head, keep only the minimal antichain of bodies — a tuple that
  // violates a dominated expression also violates a dominant one.
  std::map<int, std::vector<VarSet>> per_head;
  for (const UniversalHorn& u : query.universal()) {
    per_head[u.head].push_back(u.body);
  }
  std::vector<std::pair<uint64_t, uint64_t>> viol;  // {body, guard}
  for (auto& [head, bodies] : per_head) {
    for (VarSet body : MinimalAntichain(std::move(bodies))) {
      viol.emplace_back(body, body | VarBit(head));
    }
  }
  // Small bodies are contained in more tuples, so they expose violations
  // earliest; sort them to the front (ties broken for determinism).
  std::sort(viol.begin(), viol.end(), [](const auto& a, const auto& b) {
    return PopcountLess(a.first, b.first) ||
           (a.first == b.first && a.second < b.second);
  });
  viol_guard_.reserve(viol.size());
  viol_body_.reserve(viol.size());
  for (const auto& [body, guard] : viol) {
    viol_body_.push_back(body);
    viol_guard_.push_back(guard);
  }

  // Needs: existential conjunctions plus (when required) every guarantee
  // clause, R3-closed under the query's Horn expressions, R1-pruned to the
  // maximal antichain. Closure is sound even ahead of the violation scan:
  // an object failing a closed need either fails the raw need or violates
  // a Horn expression — a non-answer in both cases.
  std::vector<VarSet> pool;
  for (const ExistentialConj& e : query.existential()) {
    pool.push_back(query.HornClosure(e.vars));
  }
  if (opts_.require_guarantees) {
    for (const UniversalHorn& u : query.universal()) {
      pool.push_back(query.HornClosure(u.GuaranteeVars()));
    }
  }
  need_ = MaximalAntichain(std::move(pool));
  // Large needs are the least likely to be satisfied by chance; probe them
  // first so non-answers are certified early (value ascending on ties, for
  // determinism).
  std::sort(need_.begin(), need_.end(), [](uint64_t a, uint64_t b) {
    int pa = Popcount(a);
    int pb = Popcount(b);
    return pa != pb ? pa > pb : a < b;
  });
  for (uint64_t nd : need_) need_union_ |= nd;

  // Probe-order cost model. The phases reject asymmetrically: a violation
  // scan exits on the first matching tuple, while certifying a need absent
  // reads the whole object — and a needs-first order pays that price (plus
  // the O(m) union pass) on every object that a single violation probe
  // would have rejected. The needs phase keeps its one redeeming fast path
  // (an object containing the all-true tuple settles all needs in one
  // comparison), but on the learners' small deliberately-broken probes —
  // the BM_EvaluateQuerySingle shape — violation-first wins whenever the
  // violation masks match or outnumber the needs. Counts are all the
  // compile step knows about the question distribution, so that is the
  // decision rule; ties go to violations (the cheaper rejecting phase).
  violations_first_ = !viol_guard_.empty() && viol_guard_.size() >= need_.size();
}

std::vector<bool> CompiledQuery::EvaluateAll(
    std::span<const TupleSet> objects) const {
  std::vector<bool> verdicts;
  EvaluateAll(objects, &verdicts);
  return verdicts;
}

void CompiledQuery::EvaluateAll(std::span<const TupleSet> objects,
                                std::vector<bool>* verdicts) const {
  verdicts->assign(objects.size(), false);
  for (size_t i = 0; i < objects.size(); ++i) {
    (*verdicts)[i] = Evaluate(objects[i]);
  }
}

void CompiledQuery::EvaluateAll(std::span<const TupleSet> objects,
                                BitSpan verdicts) const {
  size_t count = objects.size();
  QHORN_DCHECK(verdicts.size() == count);
  if (count == 1) {
    // One-question rounds are a first-class shape now that the learners
    // no longer short-circuit them; keep them a hair from a plain
    // Evaluate.
    verdicts.Set(0, Evaluate(objects[0]));
    return;
  }
  for (size_t i = 0; i < count; ++i) verdicts.Set(i, Evaluate(objects[i]));
}

}  // namespace qhorn
