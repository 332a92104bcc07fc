// E15 — micro-benchmarks (google-benchmark): the paper's interactive-
// performance requirements. Question generation must be polynomial (and in
// practice microseconds), evaluation linear in the object, and the full
// learning loops fast enough for a UI.
//
// Evaluation benchmarks come in compiled/legacy pairs over identical
// workloads: BM_EvaluateQuery* drives the CompiledQuery engine (what every
// oracle now runs), BM_EvaluateQuery*Legacy drives the interpreted
// Query::Evaluate it replaced — the in-tree before/after record for
// BENCH_micro.json. The primary workload is a stream of 64 guarantee-
// satisfiable ("answer-shaped") 16-tuple objects: objects that pass the
// guarantee clauses are the ones the interpreter had to re-scan once per
// expression, and they are what learner questions look like (every
// learner question contains the all-true tuple). The Single pair keeps the
// original one-random-object shape, which mostly measures how fast a
// first Horn violation is found.

#include <benchmark/benchmark.h>

#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_domain.h"
#include "src/core/compiled_query.h"
#include "src/durable/durable_router.h"
#include "src/durable/fs.h"
#include "src/core/enumerate.h"
#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/learn/qhorn1_learner.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/oracle.h"
#include "src/oracle/transcript.h"
#include "src/relation/chocolate.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/executor.h"
#include "src/util/suspend.h"
#include "src/verify/verification_set.h"
#include "src/workload/fleet_driver.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

Query BenchQuery(int n, Rng& rng) {
  RpOptions opts;
  opts.num_heads = 2;
  opts.theta = 2;
  opts.num_conjunctions = 4;
  return RandomRolePreserving(n, rng, opts);
}

Query BenchQuery(int n) {
  Rng rng(1);
  return BenchQuery(n, rng);
}

// 64 answer-shaped objects: up to 16 random tuples plus the all-true tuple
// (which satisfies every guarantee clause, the way real answers and
// learner questions do).
std::vector<TupleSet> AnswerShapedStream(int n) {
  Rng rng(2);
  std::vector<TupleSet> objects;
  objects.reserve(64);
  for (int i = 0; i < 64; ++i) {
    TupleSet o = RandomObject(n, rng, 16);
    o.Add(AllTrue(n));
    objects.push_back(std::move(o));
  }
  return objects;
}

void BM_EvaluateQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Query q = BenchQuery(n);
  CompiledQuery compiled(q);
  std::vector<TupleSet> objects = AnswerShapedStream(n);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.Evaluate(objects[i]));
    i = (i + 1) & 63;
  }
  state.SetLabel(std::string("answer-shaped stream, ") +
                 CompiledQuery::SimdBackend() + " kernels");
}
BENCHMARK(BM_EvaluateQuery)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EvaluateQueryLegacy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Query q = BenchQuery(n);
  std::vector<TupleSet> objects = AnswerShapedStream(n);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(objects[i]));
    i = (i + 1) & 63;
  }
  state.SetLabel("answer-shaped stream, interpreted Query::Evaluate");
}
BENCHMARK(BM_EvaluateQueryLegacy)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EvaluateQuerySingle(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);  // the pre-PR benchmark's exact query and object
  Query q = BenchQuery(n, rng);
  TupleSet object = RandomObject(n, rng, 16);
  CompiledQuery compiled(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.Evaluate(object));
  }
}
BENCHMARK(BM_EvaluateQuerySingle)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EvaluateQuerySingleLegacy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Query q = BenchQuery(n, rng);
  TupleSet object = RandomObject(n, rng, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(object));
  }
}
BENCHMARK(BM_EvaluateQuerySingleLegacy)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_CompileQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Query q = BenchQuery(n);
  for (auto _ : state) {
    CompiledQuery compiled(q);
    benchmark::DoNotOptimize(compiled.num_need_masks());
  }
  state.SetLabel("one-time cost, amortized over a session's questions");
}
BENCHMARK(BM_CompileQuery)->Arg(16)->Arg(64);

// Per-question overhead of the oracle pipeline at different round sizes:
// the Batched variant sends each round through IsAnswerBatch (one virtual
// hop, then CompiledQuery::EvaluateAll), the Sequential variant decomposes
// the identical round into per-question IsAnswer calls via the
// SequentialOracle adapter — the before/after pair for the batched oracle
// seam. Time is per round; read per-question cost off items_per_second.
std::vector<TupleSet> BatchQuestions(int n, size_t count) {
  Rng rng(7);
  std::vector<TupleSet> questions;
  questions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TupleSet q = RandomObject(n, rng, 16);
    q.Add(AllTrue(n));
    questions.push_back(std::move(q));
  }
  return questions;
}

void BM_OracleBatchBatched(benchmark::State& state) {
  int n = 64;
  size_t batch = static_cast<size_t>(state.range(0));
  Query q = BenchQuery(n);
  QueryOracle oracle(q);
  CountingOracle counting(&oracle);
  // Both pair arms call through MembershipOracle* — the learners' actual
  // call shape — so neither arm is flattered by devirtualization.
  MembershipOracle* top = &counting;
  std::vector<TupleSet> questions = BatchQuestions(n, batch);
  BitVec answers;
  for (auto _ : state) {
    top->IsAnswerBatch(questions, answers.Prepare(batch));
    benchmark::DoNotOptimize(answers);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel("counting → compiled oracle, one round per iteration");
}
BENCHMARK(BM_OracleBatchBatched)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_OracleBatchSequential(benchmark::State& state) {
  int n = 64;
  size_t batch = static_cast<size_t>(state.range(0));
  Query q = BenchQuery(n);
  QueryOracle oracle(q);
  CountingOracle counting(&oracle);
  SequentialOracle sequential(&counting);
  MembershipOracle* top = &sequential;
  std::vector<TupleSet> questions = BatchQuestions(n, batch);
  BitVec answers;
  for (auto _ : state) {
    top->IsAnswerBatch(questions, answers.Prepare(batch));
    benchmark::DoNotOptimize(answers);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel("same round decomposed into per-question IsAnswer calls");
}
BENCHMARK(BM_OracleBatchSequential)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_CachingOracleHit(benchmark::State& state) {
  int n = 64;
  Query q = BenchQuery(n);
  QueryOracle oracle(q);
  CachingOracle caching(&oracle);
  Rng rng(3);
  TupleSet question = RandomObject(n, rng, 16);
  caching.IsAnswer(question);  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(caching.IsAnswer(question));
  }
  state.SetLabel("repeat question; cached TupleSet hash, no rehash");
}
BENCHMARK(BM_CachingOracleHit);

// The pre-worklist fixpoint re-scan, kept as the in-tree reference the
// worklist closure is measured against (shared by both Legacy closures).
VarSet FixpointClosure(const Query& q, VarSet vars) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const UniversalHorn& u : q.universal()) {
      if (IsSubset(u.body, vars) && !HasVar(vars, u.head)) {
        vars |= VarBit(u.head);
        changed = true;
      }
    }
  }
  return vars;
}

void BM_HornClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(2);
  RpOptions opts;
  opts.num_heads = n / 4;
  opts.theta = 2;
  Query q = RandomRolePreserving(n, rng, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.HornClosure(AllTrue(n / 2)));
  }
  state.SetLabel("worklist closure");
}
BENCHMARK(BM_HornClosure)->Arg(16)->Arg(64);

void BM_HornClosureLegacy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(2);
  RpOptions opts;
  opts.num_heads = n / 4;
  opts.theta = 2;
  Query q = RandomRolePreserving(n, rng, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FixpointClosure(q, AllTrue(n / 2)));
  }
  state.SetLabel("O(k²) fixpoint re-scan");
}
BENCHMARK(BM_HornClosureLegacy)->Arg(16)->Arg(64);

// Worst case for the fixpoint: a reverse-ordered implication chain
// ∀x63→x64, …, ∀x1→x2 closed from {x1} fires one expression per O(k)
// re-scan round — Θ(k²) — where the worklist closure is linear.
Query ReverseChain(int n) {
  Query q(n);
  for (int i = n - 2; i >= 0; --i) q.AddUniversal(VarBit(i), i + 1);
  return q;
}

void BM_HornClosureChain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Query q = ReverseChain(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.HornClosure(VarBit(0)));
  }
  state.SetLabel("worklist closure, reverse implication chain");
}
BENCHMARK(BM_HornClosureChain)->Arg(16)->Arg(64);

void BM_HornClosureChainLegacy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Query q = ReverseChain(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FixpointClosure(q, VarBit(0)));
  }
  state.SetLabel("O(k²) fixpoint re-scan, reverse implication chain");
}
BENCHMARK(BM_HornClosureChainLegacy)->Arg(16)->Arg(64);

void BM_Canonicalize(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(3);
  RpOptions opts;
  opts.num_heads = 3;
  opts.theta = 2;
  opts.num_conjunctions = 6;
  Query q = RandomRolePreserving(n, rng, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(q));
  }
}
BENCHMARK(BM_Canonicalize)->Arg(16)->Arg(64);

void BM_Qhorn1LearnEndToEnd(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(4);
  Qhorn1Structure target = RandomQhorn1(n, rng);
  Query target_query = target.ToQuery();
  for (auto _ : state) {
    QueryOracle oracle(target_query);
    Qhorn1Learner learner(n, &oracle);
    benchmark::DoNotOptimize(learner.Learn());
  }
  state.SetLabel("full learning loop incl. simulated user");
}
BENCHMARK(BM_Qhorn1LearnEndToEnd)->Arg(16)->Arg(32)->Arg(64);

void BM_RpLearnEndToEnd(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(5);
  RpOptions opts;
  opts.num_heads = 2;
  opts.theta = 2;
  opts.num_conjunctions = 3;
  Query target = RandomRolePreserving(n, rng, opts);
  for (auto _ : state) {
    QueryOracle oracle(target);
    benchmark::DoNotOptimize(LearnRolePreserving(n, &oracle));
  }
}
BENCHMARK(BM_RpLearnEndToEnd)->Arg(8)->Arg(16)->Arg(24);

void BM_BuildVerificationSet(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(6);
  RpOptions opts;
  opts.num_heads = 2;
  opts.theta = 2;
  opts.num_conjunctions = 4;
  Query q = RandomRolePreserving(n, rng, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVerificationSet(q));
  }
}
BENCHMARK(BM_BuildVerificationSet)->Arg(8)->Arg(16)->Arg(32);

void BM_SynthesizeQuestion(benchmark::State& state) {
  BooleanBinding binding(ChocolateSchema(), ChocolatePropositions());
  TupleSynthesizer synthesizer(&binding);
  TupleSet question = TupleSet::Parse({"111", "011", "100", "010"});
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synthesizer.SynthesizeObject(question, "box-" + std::to_string(++i)));
  }
  state.SetLabel("Boolean question → concrete chocolate box");
}
BENCHMARK(BM_SynthesizeQuestion);

// Aggregate multi-session throughput through the SessionRouter: N
// pending sessions over four distinct intended queries, each learning end
// to end while the benchmark thread answers every round from one
// QueryOracle per target. The
// Throughput/Sequential pair is the service-layer headline: the identical
// workload routed across the default executor (QHORN_THREADS-overridable;
// the 4-core reference config targets ≥3× at 16 sessions) vs pinned to one
// lane. Time is per full drain; read sessions/second off items_per_second.
std::vector<Query> ServiceTargets(int n) {
  std::vector<Query> targets;
  for (uint64_t seed = 40; seed < 44; ++seed) {
    Rng rng(seed);
    RpOptions opts;
    opts.num_heads = 2;
    opts.theta = 2;
    opts.num_conjunctions = 3;
    targets.push_back(RandomRolePreserving(n, rng, opts));
  }
  return targets;
}

/// One QueryOracle per target, compiled once and shared by every session
/// that learns it; only the benchmark thread calls them.
std::vector<std::unique_ptr<QueryOracle>> ServiceUsers(
    const std::vector<Query>& targets) {
  std::vector<std::unique_ptr<QueryOracle>> users;
  users.reserve(targets.size());
  for (const Query& q : targets) users.push_back(std::make_unique<QueryOracle>(q));
  return users;
}

void ServiceRound(int threads, int sessions,
                  const std::vector<std::unique_ptr<QueryOracle>>& users) {
  SessionRouter::Options opts;
  opts.threads = threads;
  SessionRouter router(opts);
  std::unordered_map<SessionRouter::SessionId, QueryOracle*> truth_of;
  for (int s = 0; s < sessions; ++s) {
    SessionRouter::SessionId id = router.OpenPending(32);
    truth_of[id] = users[static_cast<size_t>(s) % users.size()].get();
    router.SubmitLearn(id);
  }
  benchmark::DoNotOptimize(DrivePendingSessions(router, truth_of));
}

void BM_ServiceThroughput(benchmark::State& state) {
  int sessions = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<QueryOracle>> users =
      ServiceUsers(ServiceTargets(32));
  for (auto _ : state) {
    ServiceRound(/*threads=*/0, sessions, users);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["lanes"] =
      static_cast<double>(Executor::DefaultConcurrency());
  state.SetLabel("router over default executor (" +
                 std::to_string(Executor::DefaultConcurrency()) + " lanes)");
}
// UseRealTime: the sessions run on router lanes while the benchmark
// thread drains and plays the users; aggregate throughput is a
// wall-clock number.
BENCHMARK(BM_ServiceThroughput)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceSequential(benchmark::State& state) {
  int sessions = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<QueryOracle>> users =
      ServiceUsers(ServiceTargets(32));
  for (auto _ : state) {
    ServiceRound(/*threads=*/1, sessions, users);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["lanes"] = 1.0;
  state.SetLabel("identical workload pinned to one lane");
}
BENCHMARK(BM_ServiceSequential)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Open-sessions-vs-lanes: the continuation pair. 64 sessions multiplexed
// over a 4-lane router — 16× more open sessions than lanes. The
// OpenSessions arm runs them as *pending* sessions in the production
// configuration: every user round parks the job's call stack on its fiber
// (yielding the lane), the benchmark thread plays all 64 users through
// the PendingRounds()/ProvideAnswers protocol, and each resume is one
// context switch back into the frame that asked — no rebuild, no replay,
// no re-walk — with the learner's speculative rounds batched wide so a
// whole probe regime costs one suspension instead of one per probe. The
// Direct arm is the identical fleet as bare QuerySession jobs over
// synchronous in-process users, posted on a 4-lane Executor. The ratio prices the remaining continuation machinery
// — stack switches, round staging, protocol bookkeeping — against the
// zero threads it parks; the gate guards the recorded ratio against
// regressing (BM_SessionResume* below prices a parked resume against
// unwind-and-replay head to head).
void BM_ServiceOpenSessions(benchmark::State& state) {
  int sessions = static_cast<int>(state.range(0));
  std::vector<Query> targets = ServiceTargets(8);
  std::vector<std::unique_ptr<QueryOracle>> truths;
  truths.reserve(targets.size());
  for (const Query& q : targets) {
    truths.push_back(std::make_unique<QueryOracle>(q));
  }
  for (auto _ : state) {
    SessionRouter::Options opts;
    opts.threads = 4;
    opts.session.learner.existential.speculative_batching = true;
    opts.session.learner.universal.speculative_batching = true;
    SessionRouter router(opts);
    std::unordered_map<SessionRouter::SessionId, QueryOracle*> truth_of;
    for (int s = 0; s < sessions; ++s) {
      SessionRouter::SessionId id = router.OpenPending(8);
      truth_of[id] = truths[static_cast<size_t>(s) % truths.size()].get();
      router.SubmitLearn(id);
    }
    int64_t rounds = DrivePendingSessions(router, truth_of);
    benchmark::DoNotOptimize(rounds);
    state.counters["rounds"] = static_cast<double>(rounds);
    state.counters["replayed_questions"] =
        static_cast<double>(router.stats().replayed_questions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["lanes"] = 4.0;
  state.SetLabel("pending sessions: parked fibers, zero blocked threads");
}
// UseRealTime: the resumed jobs run on router lanes while the benchmark
// thread alternates between Drain() and playing the users.
BENCHMARK(BM_ServiceOpenSessions)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceOpenSessionsDirect(benchmark::State& state) {
  int sessions = static_cast<int>(state.range(0));
  std::vector<Query> targets = ServiceTargets(8);
  // One private synchronous user per session (a user answers from the lane
  // its session runs on); compiled once, reused across iterations.
  std::vector<std::unique_ptr<QueryOracle>> users;
  users.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    users.push_back(std::make_unique<QueryOracle>(
        targets[static_cast<size_t>(s) % targets.size()]));
  }
  for (auto _ : state) {
    // Bare sessions, one Learn job each, on the same 4 lanes.
    Executor lanes(4);
    std::vector<std::unique_ptr<QuerySession>> fleet;
    fleet.reserve(static_cast<size_t>(sessions));
    std::latch done(sessions);
    for (int s = 0; s < sessions; ++s) {
      fleet.push_back(std::make_unique<QuerySession>(
          8, users[static_cast<size_t>(s)].get()));
      lanes.Post([session = fleet.back().get(), &done] {
        session->Learn();
        done.count_down();
      });
    }
    done.wait();
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["lanes"] = 4.0;
  state.SetLabel("identical fleet, synchronous in-process users");
}
BENCHMARK(BM_ServiceOpenSessionsDirect)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Multi-core router contention. Four driver threads hammer one router
// with an open/submit/provide/poll workload over disjoint session ranges
// of pending sessions (every round crosses the announcement queue and a
// provide). Every session verifies the same tiny target, so per-session
// compute is a few microseconds and the time is dominated by router
// bookkeeping: shard mutexes and announcement drains. The shards argument
// (SessionRouter::Options::shards) is the contended-vs-striped knob — at
// 1 shard one mutex guards every session; the gate pair (4096 sessions,
// 8 shards vs 1 shard) records what the lock shards buy on the reference
// box.
void BM_RouterContention(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  constexpr int kDrivers = 4;
  Rng rng(47);
  RpOptions qopts;
  qopts.num_heads = 1;
  qopts.theta = 1;
  qopts.num_conjunctions = 1;
  qopts.conj_size_max = 2;
  const Query target = RandomRolePreserving(4, rng, qopts);
  for (auto _ : state) {
    SessionRouter::Options opts;
    opts.shards = shards;
    opts.threads = 4;
    SessionRouter router(opts);
    std::vector<std::thread> drivers;
    drivers.reserve(kDrivers);
    for (int d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&router, &target, sessions, d] {
        const int begin = d * sessions / kDrivers;
        const int end = (d + 1) * sessions / kDrivers;
        std::vector<SessionRouter::SessionId> pending;
        for (int s = begin; s < end; ++s) {
          SessionRouter::SessionId id = router.OpenPending(4);
          router.SubmitVerify(id, target);
          pending.push_back(id);
        }
        // Play this driver's users: per-id polls (four pollers hitting
        // the per-shard announcement state concurrently), all-no answers
        // (verification's question set is fixed, so arbitrary labels
        // terminate deterministically).
        BitVec bits;
        bool done = false;
        while (!done) {
          done = true;
          for (SessionRouter::SessionId id : pending) {
            std::optional<PendingRound> round = router.pending_round(id);
            if (round.has_value()) {
              BitSpan span = bits.Prepare(round->questions.size());
              for (size_t i = 0; i < span.size(); ++i) span.Set(i, false);
              router.ProvideAnswers(id, round->round_id, span);
              done = false;
            } else if (router.status(id) != SessionStatus::kIdle) {
              done = false;
            }
          }
          if (!done) std::this_thread::yield();
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    router.Drain();
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["lanes"] = 4.0;
  state.counters["shards"] = static_cast<double>(shards);
  state.SetLabel("4 drivers, open/provide/poll, " +
                 std::to_string(shards) + "-shard router");
}
// UseRealTime: the drivers and the router lanes all run off-thread; the
// contention cost is a wall-clock number.
BENCHMARK(BM_RouterContention)
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({1024, 8})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Session-resume pair: one session, R verify jobs against R distinct
// candidates, every user round a suspension and a resume on one lane. The
// router parks the call stack and each resume is one switch back — O(1)
// compute, zero questions re-served. The baseline is the unwind-and-replay
// protocol the router no longer runs, priced on bare QuerySessions: each
// resume builds a fresh session over the answered prefix replayed at the
// user boundary (what the router's correction restart still does) and
// re-runs the jobs from the first — O(R²) questions re-served. The gap widens with R,
// which is why both depths are headline-gated.
std::vector<Query> ResumeCandidates(int rounds, Query* target) {
  Rng rng(41);
  RpOptions qopts;
  qopts.num_heads = 1;
  qopts.theta = 2;
  qopts.num_conjunctions = 2;
  *target = RandomRolePreserving(6, rng, qopts);
  std::vector<Query> candidates;
  candidates.reserve(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    candidates.push_back(RandomRolePreserving(6, rng, qopts));
  }
  return candidates;
}

void BM_SessionResumeFiber(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  Query target;
  const std::vector<Query> candidates = ResumeCandidates(rounds, &target);
  QueryOracle truth(target);
  int64_t replayed = 0;
  for (auto _ : state) {
    SessionRouter::Options opts;
    opts.threads = 1;
    SessionRouter router(opts);
    SessionRouter::SessionId id = router.OpenPending(target.n());
    for (const Query& c : candidates) router.SubmitVerify(id, c);
    std::unordered_map<SessionRouter::SessionId, QueryOracle*> truth_of;
    truth_of[id] = &truth;
    benchmark::DoNotOptimize(DrivePendingSessions(router, truth_of));
    replayed = router.stats().replayed_questions;
  }
  state.SetItemsProcessed(state.iterations() * rounds);
  // The protocol's footprint, not a timing: questions re-served to the
  // session's replaying backends across all resumes of one rep.
  state.counters["replayed_questions"] = static_cast<double>(replayed);
  state.SetLabel("parked-stack switch per resume, nothing re-served");
}
BENCHMARK(BM_SessionResumeFiber)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The user of an unwinding session: answers the rounds the user has
/// already given and throws JobSuspended at the next one, which the user
/// answers before the next attempt (Give). Rounds an attempt replays from
/// the answered prefix never reach it, so each attempt answers at most the
/// one round given since the last.
class GivenRoundsOracle : public MembershipOracle {
 public:
  explicit GivenRoundsOracle(MembershipOracle* truth) : truth_(truth) {}

  /// The user answers the round the last attempt suspended on.
  void Give() { ++given_; }

  bool IsAnswer(const TupleSet& question) override {
    Admit();
    return truth_->IsAnswer(question);
  }
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    if (questions.empty()) return;
    Admit();
    truth_->IsAnswerBatch(questions, answers);
  }

 private:
  void Admit() {
    if (answered_ == given_) throw JobSuspended();
    ++answered_;
  }

  MembershipOracle* truth_;
  int64_t given_ = 0;
  int64_t answered_ = 0;
};

void BM_SessionResumeReplay(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  Query target;
  const std::vector<Query> candidates = ResumeCandidates(rounds, &target);
  QueryOracle truth(target);
  int64_t replayed = 0;
  for (auto _ : state) {
    GivenRoundsOracle user(&truth);
    std::unique_ptr<ReplayOracle> replay;
    std::unique_ptr<QuerySession> session;
    replayed = 0;
    for (bool done = false; !done;) {
      // One resume: a fresh session over every answered round replayed at
      // the user boundary, re-running the jobs from the first.
      std::vector<TranscriptEntry> prefix;
      if (session != nullptr) {
        prefix = session->TakeUserTranscript();
        replayed += replay->replayed();
        session.reset();
      }
      replay = std::make_unique<ReplayOracle>(std::move(prefix), &user);
      session = std::make_unique<QuerySession>(target.n(), replay.get());
      try {
        for (const Query& c : candidates) session->Verify(c);
        done = true;
      } catch (const JobSuspended&) {
        user.Give();
      }
    }
    benchmark::DoNotOptimize(session->questions_asked());
    replayed += replay->replayed();
  }
  state.SetItemsProcessed(state.iterations() * rounds);
  state.counters["replayed_questions"] = static_cast<double>(replayed);
  state.SetLabel("full-prefix replay per resume (bare-session baseline)");
}
BENCHMARK(BM_SessionResumeReplay)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The canonical-form dedup pair (the enumerate bottleneck): keying on the
// hashed CanonicalForm itself vs rendering ToString() keys into an ordered
// set, over an identical mixed-duplicate query stream.
std::vector<Query> DedupStream(int n) {
  std::vector<Query> queries;
  Rng rng(9);
  RpOptions opts;
  opts.num_heads = 3;
  opts.theta = 2;
  opts.num_conjunctions = 6;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(RandomRolePreserving(n, rng, opts));
  }
  // Every query appears twice: half the probes are dedup hits, as in the
  // enumeration sweeps.
  for (int i = 0; i < 64; ++i) queries.push_back(queries[static_cast<size_t>(i)]);
  return queries;
}

void BM_CanonicalDedup(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Query> stream = DedupStream(n);
  for (auto _ : state) {
    std::unordered_set<CanonicalForm, CanonicalFormHash> seen;
    for (const Query& q : stream) seen.insert(Canonicalize(q));
    benchmark::DoNotOptimize(seen.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.SetLabel("hashed CanonicalForm keys (cached FNV)");
}
BENCHMARK(BM_CanonicalDedup)->Arg(16)->Arg(64);

void BM_CanonicalDedupLegacy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Query> stream = DedupStream(n);
  for (auto _ : state) {
    std::set<std::string> seen;
    for (const Query& q : stream) seen.insert(Canonicalize(q).ToString());
    benchmark::DoNotOptimize(seen.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.SetLabel("ToString() keys in an ordered set (the pre-PR scheme)");
}
BENCHMARK(BM_CanonicalDedupLegacy)->Arg(16)->Arg(64);

// The durable pair: one clean generated session driven through the
// pending protocol to completion, with and without the write-ahead log
// (MemFs, fsync-per-append — the full log-before-ack path minus real disk
// latency). The delta is the per-round cost of durability: encode, CRC,
// append, simulated fsync. Not part of the CI bench gate.
SessionSpec DurableBenchSpec() {
  for (uint64_t seed = 1;; ++seed) {
    for (const SessionSpec& s : GenerateFleet(WorkloadSpec::FromSeed(seed)).sessions) {
      if (!s.noisy() && !s.abandon && !s.jobs.empty()) return s;
    }
  }
}

template <typename Endpoint>
int64_t DriveDurableBenchSession(Endpoint& endpoint, const SessionSpec& spec,
                                 int64_t id) {
  QueryOracle truth(spec.target);
  BitVec bits;
  int64_t rounds = 0;
  for (;;) {
    endpoint.Drain();
    std::vector<PendingRound> pending = endpoint.PendingRounds();
    const PendingRound* mine = nullptr;
    for (const PendingRound& r : pending) {
      if (r.session_id == id) mine = &r;
    }
    if (mine == nullptr) return rounds;
    BitSpan span = bits.Prepare(mine->questions.size());
    truth.IsAnswerBatch(mine->questions, span);
    endpoint.ProvideAnswers(id, mine->round_id, span);
    ++rounds;
  }
}

void BM_DurableProvideAnswers(benchmark::State& state) {
  SessionSpec spec = DurableBenchSpec();
  DurableRouterOptions opts;
  opts.router.threads = 1;
  opts.log.fsync_policy = FsyncPolicy::kEveryAppend;
  int64_t rounds = 0;
  std::string error;
  for (auto _ : state) {
    MemFs mem;
    auto dr = DurableRouter::Create(&mem, "qlog", opts, &error);
    int64_t id = dr->OpenPending(spec);
    rounds += DriveDurableBenchSession(*dr, spec, id);
  }
  state.SetItemsProcessed(rounds);
  state.SetLabel("WAL per round: encode + CRC + append + fsync (MemFs)");
}
BENCHMARK(BM_DurableProvideAnswers)->Unit(benchmark::kMillisecond);

void BM_DurableProvideAnswersInMemory(benchmark::State& state) {
  SessionSpec spec = DurableBenchSpec();
  SessionRouter::Options opts;
  opts.threads = 1;
  int64_t rounds = 0;
  for (auto _ : state) {
    SessionRouter router(opts);
    int64_t id = router.OpenPending(spec.n);
    SubmitSpecJobs(router, id, spec);
    rounds += DriveDurableBenchSession(router, spec, id);
  }
  state.SetItemsProcessed(rounds);
  state.SetLabel("identical session, no durability layer");
}
BENCHMARK(BM_DurableProvideAnswersInMemory)->Unit(benchmark::kMillisecond);

void BM_BruteForceEquivalence(benchmark::State& state) {
  Query a = Query::Parse("∀x1→x2 ∃x3x4", 4);
  Query b = Query::Parse("∀x1→x2 ∃x3x4 ∃x1x2", 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceEquivalent(a, b));
  }
  state.SetLabel("2^(2^4) objects enumerated");
}
BENCHMARK(BM_BruteForceEquivalence);

}  // namespace
}  // namespace qhorn

int main(int argc, char** argv) {
  benchmark::AddCustomContext("qhorn_simd",
                              qhorn::CompiledQuery::SimdBackend());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
