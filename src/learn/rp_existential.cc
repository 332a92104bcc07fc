#include "src/learn/rp_existential.h"

#include <algorithm>
#include <set>

#include "src/bool/lattice.h"
#include "src/core/compiled_query.h"
#include "src/learn/find.h"
#include "src/util/check.h"

namespace qhorn {

namespace {

class LatticeSearch {
 public:
  LatticeSearch(int n, MembershipOracle* oracle,
                const std::vector<UniversalHorn>& universal,
                const RpExistentialOptions& opts)
      : n_(n), oracle_(oracle), opts_(opts) {
    // Compile the learned universal Horn expressions once: the walk tests
    // every lattice child against them (§3.2.2). Only ViolatesUniversal is
    // used, so skip compiling guarantee-clause need masks.
    Query horn_query(n);
    for (const UniversalHorn& u : universal) {
      horn_query.AddUniversal(u.body, u.head);
    }
    compiled_horns_ =
        CompiledQuery(horn_query, EvalOptions{.require_guarantees = false});
    // Horn closures of the guarantee clauses, for the downset optimization.
    for (const UniversalHorn& u : universal) {
      guarantee_closures_.insert(horn_query.HornClosure(u.GuaranteeVars()));
    }
  }

  RpExistentialResult Run(std::vector<Tuple> frontier) {
    RpExistentialResult result;
    std::vector<Tuple> discovered;

    while (!frontier.empty()) {
      ++result.trace.levels;
      std::vector<Tuple> next;
      // The level runs in two regimes. While substitutions are frequent —
      // the descent phase, where each substitution changes the working
      // object and so the next tuple's question — the tuples are probed one
      // at a time, exactly the sequential Algorithm 7/8 walk (zero wasted
      // questions). After two consecutive non-answers the walk assumes it
      // has reached distinguishing tuples and flips to batch mode: one
      // round poses, for every still-pending tuple t, the *optimistic*
      // substitute question (t replaced by its violation-free children,
      // every other pending tuple intact). Consuming such a round is sound:
      //   * A non-answer is final. The optimistic object's coverage is a
      //     superset of the object any sequential interleaving would have
      //     used (intact tuples cover at least what their pruned children
      //     cover), and answers are monotone in coverage on violation-free
      //     objects — so t's conjunction is genuinely indispensable.
      //   * The first answer's base is exact: every other pending tuple is
      //     still intact at that point, so its substitution is performed —
      //     the children are pruned adaptively (Algorithm 8) — while the
      //     answers of *later* substitutable tuples are discarded
      //     (trace.discarded_probes) and re-asked against the updated
      //     object, back in the sequential regime.
      // In the common tail — a frontier sitting on distinguishing tuples —
      // a level costs two sequential probes plus a single all-false round.
      std::vector<Tuple> pending = std::move(frontier);
      size_t head = 0;  // tuples before `head` are resolved
      int consecutive_non_answers = 0;
      // Speculative batching drops the sequential warm-up entirely: with a
      // pending (human) backend each sequential probe is a full suspended
      // round trip, so the walk accepts the discarded-probe re-asks in
      // exchange for one wide round per batch. Threshold 2 is the compiled
      // -oracle default described above.
      const int sequential_threshold = opts_.speculative_batching ? 0 : 2;

      // Prunes the already-probed-replaceable tuple `t` against `base`
      // (everything in the working object except t) and distributes the
      // kept children (Algorithm 8). Under speculative batching the prune's
      // adaptive binary search collapses to one wide round per kept child
      // (MinimalSubsetBatched) — same kept set, far fewer suspensions.
      auto substitute = [&](const std::vector<Tuple>& base,
                            const std::vector<Tuple>& children) {
        std::vector<Tuple> kept;
        if (opts_.speculative_batching) {
          kept = MinimalSubsetBatched(
              children,
              [&](const std::vector<std::vector<Tuple>>& candidates,
                  BitSpan answers) {
                std::vector<TupleSet> questions;
                questions.reserve(candidates.size());
                for (const std::vector<Tuple>& c : candidates) {
                  questions.push_back(Join(base, c));
                }
                ++result.trace.rounds;
                result.trace.questions +=
                    static_cast<int64_t>(questions.size());
                oracle_->IsAnswerBatch(questions, answers);
              });
        } else {
          kept = MinimalSubset(children, [&](const std::vector<Tuple>& sub) {
            return Ask(Join(base, sub), &result.trace);
          });
        }
        result.trace.pruned_tuples +=
            static_cast<int64_t>(children.size() - kept.size());
        for (Tuple c : kept) {
          if (opts_.skip_guarantee_downsets &&
              guarantee_closures_.count(c) != 0) {
            discovered.push_back(c);
          } else {
            next.push_back(c);
          }
        }
      };

      while (head < pending.size()) {
        if (consecutive_non_answers < sequential_threshold) {
          // Sequential regime: probe the front tuple alone — bit-for-bit
          // the classic Algorithm 7/8 walk, with base and children built
          // once and shared between the probe and the prune.
          Tuple t = pending[head];
          std::vector<Tuple> base = discovered;
          base.insert(base.end(),
                      pending.begin() + static_cast<long>(head) + 1,
                      pending.end());
          base.insert(base.end(), next.begin(), next.end());
          const std::vector<Tuple>& children = ViolationFreeChildren(t);
          ++result.trace.rounds;
          if (!Ask(Join(base, children), &result.trace)) {
            discovered.push_back(t);
            ++consecutive_non_answers;
            ++head;
            continue;
          }
          consecutive_non_answers = 0;
          substitute(base, children);
          ++head;
          continue;
        }

        // Batch regime: one round probes every unresolved tuple with its
        // optimistic substitute question — its children plus everything
        // that must stay (discovered tuples, the other unresolved tuples
        // intact, and the tuples kept for the next level). A single
        // unresolved tuple takes this path too — the round then *is* the
        // sequential probe, question for question; the old singleton
        // short-circuit bought only the few-ns batch-plumbing residue.
        size_t count = pending.size() - head;
        std::vector<TupleSet> questions;
        questions.reserve(count);
        for (size_t i = head; i < pending.size(); ++i) {
          std::vector<Tuple>& object = join_scratch_;
          object.assign(discovered.begin(), discovered.end());
          for (size_t j = head; j < pending.size(); ++j) {
            if (j != i) object.push_back(pending[j]);
          }
          object.insert(object.end(), next.begin(), next.end());
          const std::vector<Tuple>& children =
              ViolationFreeChildren(pending[i]);
          object.insert(object.end(), children.begin(), children.end());
          questions.emplace_back(object);
        }
        ++result.trace.rounds;
        result.trace.questions += static_cast<int64_t>(count);
        BitSpan answers = batch_answers_.Prepare(count);
        oracle_->IsAnswerBatch(questions, answers);

        // Consume: every non-answer is final; the first answer's base was
        // exact, so it is substituted; later answers are discarded and
        // re-probed under the updated object, back in sequential regime.
        size_t first_true = count;
        std::vector<Tuple> unresolved;
        for (size_t i = 0; i < count; ++i) {
          if (!answers.Get(i)) {
            discovered.push_back(pending[head + i]);
            ++consecutive_non_answers;
          } else if (first_true == count) {
            first_true = i;
          } else {
            unresolved.push_back(pending[head + i]);
          }
        }
        if (first_true == count) break;  // level fully resolved in one round

        consecutive_non_answers = 0;
        result.trace.discarded_probes +=
            static_cast<int64_t>(unresolved.size());
        // Rewrite the unresolved window — the re-probes follow the acted-on
        // tuple — and substitute it (its probe already answered).
        Tuple acted = pending[head + first_true];
        pending.resize(head + 1 + unresolved.size());
        pending[head] = acted;
        std::copy(unresolved.begin(), unresolved.end(),
                  pending.begin() + static_cast<long>(head) + 1);
        std::vector<Tuple> base = discovered;
        base.insert(base.end(), unresolved.begin(), unresolved.end());
        base.insert(base.end(), next.begin(), next.end());
        substitute(base, ViolationFreeChildren(acted));
        ++head;
      }
      // Children reached from several parents appear once.
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      frontier = std::move(next);
    }

    std::sort(discovered.begin(), discovered.end());
    discovered.erase(std::unique(discovered.begin(), discovered.end()),
                     discovered.end());
    for (Tuple t : discovered) {
      // Only an answer inconsistent with every role-preserving query walks
      // the search down to the empty tuple. ∃ over no variable holds for
      // every non-empty object, so dropping it keeps the learned query
      // well-formed instead of aborting on one bad answer.
      if (t != 0) result.conjunctions.push_back(t);
    }
    return result;
  }

 private:
  bool Ask(const TupleSet& question, RpExistentialTrace* trace) {
    ++trace->questions;
    return oracle_->IsAnswer(question);
  }

  /// The object base ∪ extra, gathered in a buffer reused across the
  /// search so building a question allocates only the TupleSet itself.
  TupleSet Join(const std::vector<Tuple>& base,
                const std::vector<Tuple>& extra) {
    join_scratch_.assign(base.begin(), base.end());
    join_scratch_.insert(join_scratch_.end(), extra.begin(), extra.end());
    return TupleSet(join_scratch_);
  }

  /// Children of `t` that violate no learned Horn expression. The walk is
  /// allocation-free: children are visited in place and collected into a
  /// buffer reused across the whole search (valid until the next call).
  const std::vector<Tuple>& ViolationFreeChildren(Tuple t) {
    children_scratch_.clear();
    AppendLatticeChildrenFiltered(
        t, AllTrue(n_),
        [this](Tuple c) { return !compiled_horns_.ViolatesUniversal(c); },
        &children_scratch_);
    return children_scratch_;
  }

  int n_;
  MembershipOracle* oracle_;
  CompiledQuery compiled_horns_;
  RpExistentialOptions opts_;
  std::set<Tuple> guarantee_closures_;
  std::vector<Tuple> children_scratch_;
  std::vector<Tuple> join_scratch_;
  BitVec batch_answers_;
};

}  // namespace

RpExistentialResult LearnExistentialConjunctions(
    int n, MembershipOracle* oracle,
    const std::vector<UniversalHorn>& universal,
    const RpExistentialOptions& opts,
    const std::vector<Tuple>* initial_frontier) {
  QHORN_CHECK(n >= 1 && n <= kMaxVars);
  QHORN_CHECK(oracle != nullptr);
  LatticeSearch search(n, oracle, universal, opts);
  std::vector<Tuple> frontier =
      initial_frontier != nullptr ? *initial_frontier
                                  : std::vector<Tuple>{AllTrue(n)};
  return search.Run(std::move(frontier));
}

}  // namespace qhorn
