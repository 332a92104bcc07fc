// Differential fidelity harness for the batched oracle pipeline.
//
// IsAnswerBatch's contract is question-for-question equivalence with the
// sequential IsAnswer loop. The harness runs the identical learner /
// verifier / probe-stream twice against the identical oracle stack
// (transcript → cache → counting → base): once with batches flowing
// through every override, once with a SequentialOracle adapter decomposing
// each batch into single questions below the transcript. Everything
// observable must be bit-identical — the learned query, every
// (question, response) transcript pair in order, the question/tuple/answer
// statistics at the user boundary, and the cache's hit/miss tallies — for
// every oracle type: QueryOracle in both guarantee modes, CachingOracle,
// CountingOracle, NoisyOracle with a fixed seed, and AdversaryOracle.
// The suite sweeps ≥200 seeded random queries at n ∈ {3, 8, 16, 64}.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/learn/qhorn1_learner.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/adversary.h"
#include "src/oracle/transcript.h"
#include "src/session/session.h"
#include "src/verify/verifier.h"

namespace qhorn {
namespace {

/// What one run of a workload exposes to comparison.
struct RunRecord {
  std::string payload;  ///< workload-specific result rendering
  std::vector<std::pair<TupleSet, bool>> transcript;
  OracleStats stats;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

using BaseFactory = std::function<std::unique_ptr<MembershipOracle>()>;
using Workload = std::function<std::string(MembershipOracle*)>;

RunRecord RunStack(const BaseFactory& make_base, const Workload& drive,
                   bool force_sequential) {
  std::unique_ptr<MembershipOracle> base = make_base();
  CountingOracle counting(base.get());
  CachingOracle caching(&counting);
  SequentialOracle sequential(&caching);
  TranscriptOracle transcript(force_sequential
                                  ? static_cast<MembershipOracle*>(&sequential)
                                  : &caching);
  RunRecord record;
  record.payload = drive(&transcript);
  for (const TranscriptEntry& e : transcript.entries()) {
    record.transcript.emplace_back(e.question, e.response);
  }
  record.stats = counting.stats();
  record.cache_hits = caching.hits();
  record.cache_misses = caching.misses();
  return record;
}

/// Runs the workload through the batched and the sequential path and
/// asserts every observable agrees.
void ExpectFaithful(const BaseFactory& make_base, const Workload& drive,
                    const std::string& context) {
  RunRecord batched = RunStack(make_base, drive, /*force_sequential=*/false);
  RunRecord sequential = RunStack(make_base, drive, /*force_sequential=*/true);

  EXPECT_EQ(batched.payload, sequential.payload) << context;
  EXPECT_EQ(batched.stats.questions, sequential.stats.questions) << context;
  EXPECT_EQ(batched.stats.tuples, sequential.stats.tuples) << context;
  EXPECT_EQ(batched.stats.max_tuples, sequential.stats.max_tuples) << context;
  EXPECT_EQ(batched.stats.answers, sequential.stats.answers) << context;
  EXPECT_EQ(batched.cache_hits, sequential.cache_hits) << context;
  EXPECT_EQ(batched.cache_misses, sequential.cache_misses) << context;
  ASSERT_EQ(batched.transcript.size(), sequential.transcript.size()) << context;
  for (size_t i = 0; i < batched.transcript.size(); ++i) {
    EXPECT_EQ(batched.transcript[i].first, sequential.transcript[i].first)
        << context << " question " << i;
    EXPECT_EQ(batched.transcript[i].second, sequential.transcript[i].second)
        << context << " response " << i;
  }
}

Query RandomRp(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = n >= 8 ? 2 : 1;
  opts.theta = 2;
  opts.num_conjunctions = 3;
  opts.conj_size_max = std::min(4, n);
  return RandomRolePreserving(n, rng, opts);
}

/// A noisy simulated user owning its ground-truth oracle, so each
/// differential arm can rebuild the identical stack (same seed → same
/// flip sequence).
struct NoisyStack : MembershipOracle {
  QueryOracle truth;
  NoisyOracle noisy;
  NoisyStack(const Query& q, double flip_prob, uint64_t seed)
      : truth(q), noisy(&truth, flip_prob, seed) {}
  bool IsAnswer(const TupleSet& q) override { return noisy.IsAnswer(q); }
  void IsAnswerBatch(std::span<const TupleSet> qs, BitSpan as) override {
    noisy.IsAnswerBatch(qs, as);
  }
};

BaseFactory MakeNoisy(const Query& intended, double flip_prob, uint64_t seed) {
  return [&intended, flip_prob, seed]() -> std::unique_ptr<MembershipOracle> {
    return std::make_unique<NoisyStack>(intended, flip_prob, seed);
  };
}

/// The learner differentials also pin the restructured learners against
/// ground truth (not just the two pipeline paths against each other): the
/// learned query must agree with the hidden target on a random sample.
void ExpectMatchesTarget(const Query& learned, const Query& target,
                         uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  EXPECT_EQ(EstimateDisagreement(learned, target, 300, rng), 0.0)
      << "learned " << learned.ToString() << " vs target "
      << target.ToString();
}

// ---------------------------------------------------------------------------
// Learner workloads.

Workload Qhorn1Workload(int n) {
  return [n](MembershipOracle* top) {
    Qhorn1Learner learner(n, top);
    Qhorn1Structure learned = learner.Learn();
    return learned.ToQuery().ToString() + " | heads=" +
           std::to_string(learner.trace().head_questions) + " bodies=" +
           std::to_string(learner.trace().universal_body_questions) +
           " exist=" + std::to_string(learner.trace().existential_questions);
  };
}

Workload RpWorkload(int n) {
  return [n](MembershipOracle* top) {
    RpLearnerResult result = LearnRolePreserving(n, top);
    return result.query.ToString() + " | q=" +
           std::to_string(result.total_questions()) + " rounds=" +
           std::to_string(result.existential_trace.rounds) + " discarded=" +
           std::to_string(result.existential_trace.discarded_probes);
  };
}

class Qhorn1DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(Qhorn1DifferentialTest, QueryOracleBatchedEqualsSequential) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  Query target = RandomQhorn1(n, rng).ToQuery();
  // Against a truthful oracle the §3.1 learner is exact (Theorem 3.1):
  // besides the two-path fidelity, pin the learned query to the target.
  auto drive = [&, n](MembershipOracle* top) {
    Qhorn1Learner learner(n, top);
    Query learned = learner.Learn().ToQuery();
    ExpectMatchesTarget(learned, target, seed);
    return learned.ToString() + " | heads=" +
           std::to_string(learner.trace().head_questions) + " exist=" +
           std::to_string(learner.trace().existential_questions);
  };
  ExpectFaithful([&] { return std::make_unique<QueryOracle>(target); }, drive,
                 "qhorn1 n=" + std::to_string(n));
}

TEST_P(Qhorn1DifferentialTest, NoisyOracleBatchedEqualsSequential) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  Query target = RandomQhorn1(n, rng).ToQuery();
  // The qhorn-1 learner terminates under arbitrary labellings, so the
  // noise path can be driven end to end. The fixed seed makes the flip
  // sequence identical on both paths — a noisy user is still one user.
  ExpectFaithful(MakeNoisy(target, 0.2, /*seed=*/99), Qhorn1Workload(n),
                 "qhorn1+noise n=" + std::to_string(n));
}

TEST_P(Qhorn1DifferentialTest, AdversaryOracleBatchedEqualsSequential) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  std::vector<Query> candidates;
  for (int i = 0; i < 6; ++i) {
    candidates.push_back(RandomQhorn1(n, rng).ToQuery());
  }
  auto make_base = [&] {
    return std::make_unique<AdversaryOracle>(candidates);
  };
  // Payload includes the surviving candidate count: the batched adversary
  // must prune its version space exactly as the sequential one.
  auto drive = [&, n](MembershipOracle* top) {
    Qhorn1Learner learner(n, top);
    std::string learned = learner.Learn().ToQuery().ToString();
    return learned;
  };
  ExpectFaithful(make_base, drive, "qhorn1+adversary n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Qhorn1DifferentialTest,
    ::testing::Combine(::testing::Values(3, 8, 16, 64),
                       ::testing::Range<uint64_t>(0, 10)));

class RpDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(RpDifferentialTest, QueryOracleBatchedEqualsSequential) {
  auto [n, seed] = GetParam();
  Query target = RandomRp(n, seed);
  // Against a truthful oracle the role-preserving learner recovers a query
  // equivalent to the target (Theorems 3.5/3.7); pin it alongside the
  // two-path fidelity so a restructuring bug that breaks *both* paths the
  // same way is still caught.
  auto drive = [&, n](MembershipOracle* top) {
    RpLearnerResult result = LearnRolePreserving(n, top);
    ExpectMatchesTarget(result.query, target, seed);
    return result.query.ToString() + " | q=" +
           std::to_string(result.total_questions());
  };
  ExpectFaithful([&] { return std::make_unique<QueryOracle>(target); }, drive,
                 "rp n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RpDifferentialTest,
    ::testing::Combine(::testing::Values(3, 8, 16), ::testing::Range<uint64_t>(0, 10)));

// n = 64 role-preserving runs are heavier; a smaller seed sweep keeps the
// suite fast while still covering the widest arity.
class RpDifferentialWideTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RpDifferentialWideTest, QueryOracleBatchedEqualsSequential) {
  Query target = RandomRp(64, GetParam());
  auto drive = [&](MembershipOracle* top) {
    RpLearnerResult result = LearnRolePreserving(64, top);
    ExpectMatchesTarget(result.query, target, GetParam());
    return result.query.ToString() + " | q=" +
           std::to_string(result.total_questions());
  };
  ExpectFaithful([&] { return std::make_unique<QueryOracle>(target); }, drive,
                 "rp n=64");
}

INSTANTIATE_TEST_SUITE_P(Sweep, RpDifferentialWideTest,
                         ::testing::Range<uint64_t>(0, 4));

// ---------------------------------------------------------------------------
// Verifier and PAC workloads — robust to any labelling, so they drive the
// noisy and adversarial oracles and both guarantee modes.

Workload VerificationWorkload(const Query& given) {
  return [given](MembershipOracle* top) {
    VerificationReport report = RunVerification(BuildVerificationSet(given), top);
    std::string payload = report.accepted ? "accepted" : "rejected";
    for (const Discrepancy& d : report.discrepancies) {
      payload += " " + std::to_string(d.question_index);
    }
    payload += " | asked=" + std::to_string(report.questions_asked);
    return payload;
  };
}

Workload PacWorkload(const Query& hypothesis, uint64_t pac_seed) {
  return [hypothesis, pac_seed](MembershipOracle* top) {
    Rng rng(pac_seed);
    PacReport report = PacVerify(hypothesis, top, rng);
    return std::string(report.consistent ? "consistent" : "inconsistent") +
           " samples=" + std::to_string(report.samples) + " cx=" +
           report.counterexample.ToString(hypothesis.n());
  };
}

class VerifyDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(VerifyDifferentialTest, AllOracleTypesBothGuaranteeModes) {
  auto [n, seed] = GetParam();
  Query given = RandomRp(n, seed);
  Query intended = RandomRp(n, seed + 1000);  // usually different: rejections
  EvalOptions relaxed;
  relaxed.require_guarantees = false;

  ExpectFaithful([&] { return std::make_unique<QueryOracle>(intended); },
                 VerificationWorkload(given), "verify strict");
  ExpectFaithful(
      [&] { return std::make_unique<QueryOracle>(intended, relaxed); },
      VerificationWorkload(given), "verify relaxed");

  BaseFactory make_noisy = MakeNoisy(intended, 0.3, /*seed=*/7);
  ExpectFaithful(make_noisy, VerificationWorkload(given), "verify noisy");

  std::vector<Query> candidates;
  Rng rng(seed);
  for (int i = 0; i < 5; ++i) candidates.push_back(RandomRp(n, rng.Next()));
  ExpectFaithful([&] { return std::make_unique<AdversaryOracle>(candidates); },
                 VerificationWorkload(given), "verify adversary");

  ExpectFaithful([&] { return std::make_unique<QueryOracle>(intended); },
                 PacWorkload(given, seed), "pac strict");
  ExpectFaithful(
      [&] { return std::make_unique<QueryOracle>(intended, relaxed); },
      PacWorkload(given, seed), "pac relaxed");
  ExpectFaithful(make_noisy, PacWorkload(given, seed), "pac noisy");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VerifyDifferentialTest,
    ::testing::Combine(::testing::Values(3, 8, 16, 64),
                       ::testing::Range<uint64_t>(0, 7)));

// ---------------------------------------------------------------------------
// Raw probe streams: mixed batch sizes (empty, singleton, wide), duplicate
// questions inside one round and across rounds — the shapes that stress the
// caching partition and the adversary's deferred compaction.

class StreamDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

Workload StreamWorkload(int n, uint64_t seed) {
  return [n, seed](MembershipOracle* top) {
    Rng rng(seed);
    std::string payload;
    std::vector<TupleSet> history;
    for (int round = 0; round < 8; ++round) {
      size_t size = static_cast<size_t>(rng.Range(0, 9));
      std::vector<TupleSet> batch;
      for (size_t i = 0; i < size; ++i) {
        if (!history.empty() && rng.Chance(0.35)) {
          // Repeat an earlier question (cache hit / in-batch duplicate).
          batch.push_back(history[static_cast<size_t>(
              rng.Range(0, static_cast<int>(history.size()) - 1))]);
        } else {
          batch.push_back(RandomObject(n, rng, 5));
        }
      }
      history.insert(history.end(), batch.begin(), batch.end());
      BitVec answers;
      top->IsAnswerBatch(batch, answers.Prepare(batch.size()));
      payload += "|";
      for (size_t i = 0; i < batch.size(); ++i) {
        payload += answers.Get(i) ? '1' : '0';
      }
      // Interleave a single sequential question between rounds.
      TupleSet single = RandomObject(n, rng, 5);
      history.push_back(single);
      payload += top->IsAnswer(single) ? "+" : "-";
    }
    return payload;
  };
}

TEST_P(StreamDifferentialTest, AllOracleTypesBothGuaranteeModes) {
  auto [n, seed] = GetParam();
  Query intended = RandomRp(n, seed);
  EvalOptions relaxed;
  relaxed.require_guarantees = false;

  ExpectFaithful([&] { return std::make_unique<QueryOracle>(intended); },
                 StreamWorkload(n, seed), "stream strict");
  ExpectFaithful(
      [&] { return std::make_unique<QueryOracle>(intended, relaxed); },
      StreamWorkload(n, seed), "stream relaxed");

  ExpectFaithful(MakeNoisy(intended, 0.25, /*seed=*/3), StreamWorkload(n, seed),
                 "stream noisy");

  std::vector<Query> candidates;
  Rng rng(seed + 31);
  for (int i = 0; i < 7; ++i) candidates.push_back(RandomRp(n, rng.Next()));
  auto adversary_payload = [&](MembershipOracle* top) {
    return StreamWorkload(n, seed)(top);
  };
  // For the adversary, additionally pin the surviving version space.
  auto make_adversary = [&] {
    return std::make_unique<AdversaryOracle>(candidates);
  };
  {
    auto drive_with_survivors = [&](AdversaryOracle* adversary,
                                    bool force_sequential) {
      CountingOracle counting(adversary);
      SequentialOracle sequential(&counting);
      MembershipOracle* top =
          force_sequential ? static_cast<MembershipOracle*>(&sequential)
                           : &counting;
      std::string payload = adversary_payload(top);
      payload += " survivors=" + std::to_string(adversary->candidates().size());
      for (const Query& q : adversary->candidates()) {
        payload += ";" + q.ToString();
      }
      return payload;
    };
    AdversaryOracle batched(candidates);
    AdversaryOracle sequential(candidates);
    EXPECT_EQ(drive_with_survivors(&batched, false),
              drive_with_survivors(&sequential, true))
        << "adversary survivors n=" << n << " seed=" << seed;
  }
  ExpectFaithful(make_adversary, StreamWorkload(n, seed), "stream adversary");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamDifferentialTest,
    ::testing::Combine(::testing::Values(3, 8, 16, 64),
                       ::testing::Range<uint64_t>(0, 7)));

// ---------------------------------------------------------------------------
// Stack composition and the batched backend. A QuerySession must wire the
// identical stack the hand-built chains above use, and a backend that
// answers whole rounds (QueryOracle, through CompiledQuery::EvaluateAll)
// must be invisible: same answers in question order, same decorator
// statistics, same noise draws. (The "Async" in the two test names is the
// batched simulated-user backend these tests once drove.)

void ExpectRecordsEqual(const RunRecord& batched, const RunRecord& sequential,
                        const std::string& context) {
  EXPECT_EQ(batched.payload, sequential.payload) << context;
  EXPECT_EQ(batched.stats.questions, sequential.stats.questions) << context;
  EXPECT_EQ(batched.stats.answers, sequential.stats.answers) << context;
  EXPECT_EQ(batched.cache_hits, sequential.cache_hits) << context;
  EXPECT_EQ(batched.cache_misses, sequential.cache_misses) << context;
  ASSERT_EQ(batched.transcript.size(), sequential.transcript.size()) << context;
  for (size_t i = 0; i < batched.transcript.size(); ++i) {
    EXPECT_EQ(batched.transcript[i], sequential.transcript[i])
        << context << " entry " << i;
  }
}

/// Rounds of 1061 questions, far wider than any learner round, with
/// in-round duplicates so the cache partition feeds the backend miss
/// rounds of a different width than the posed rounds.
Workload WideRoundWorkload(int n, uint64_t seed) {
  return [n, seed](MembershipOracle* top) {
    Rng rng(seed);
    std::string payload;
    size_t width = 1061;
    for (int round = 0; round < 3; ++round) {
      std::vector<TupleSet> batch;
      batch.reserve(width);
      for (size_t i = 0; i < width; ++i) {
        if (!batch.empty() && rng.Chance(0.2)) {
          batch.push_back(batch[static_cast<size_t>(
              rng.Range(0, static_cast<int>(batch.size()) - 1))]);
        } else {
          batch.push_back(RandomObject(n, rng, 6));
        }
      }
      BitVec answers;
      top->IsAnswerBatch(batch, answers.Prepare(batch.size()));
      int64_t ones = 0;
      for (size_t i = 0; i < batch.size(); ++i) ones += answers.Get(i);
      payload += "|" + std::to_string(ones);
    }
    return payload;
  };
}

class PipelineDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PipelineDifferentialTest, AsyncBackendEqualsSequential) {
  auto [n, seed] = GetParam();
  Query target = RandomRp(n, seed);

  for (const auto& [name, workload] :
       std::vector<std::pair<std::string, Workload>>{
           {"rp-learn", RpWorkload(n)},
           {"wide", WideRoundWorkload(n, seed)}}) {
    // Batched arm: whole rounds through CompiledQuery::EvaluateAll.
    // Sequential arm: the identical backend decomposed question for
    // question — the semantics being preserved.
    const BaseFactory backend = [&] {
      return std::make_unique<QueryOracle>(target);
    };
    RunRecord batched = RunStack(backend, workload,
                                 /*force_sequential=*/false);
    RunRecord sequential = RunStack(backend, workload,
                                    /*force_sequential=*/true);
    ExpectRecordsEqual(batched, sequential,
                       "pipeline+batched " + name + " n=" + std::to_string(n) +
                           " seed=" + std::to_string(seed));
  }
}

TEST_P(PipelineDifferentialTest, NoisyOverAsyncDrawsFlipsInQuestionOrder) {
  auto [n, seed] = GetParam();
  Query target = RandomRp(n, seed);

  // The noise stage sits between the backend and the counting decorators:
  // whether the round below it arrives batched or question by question,
  // the flip draws must consume the seed in question order.
  auto run = [&](MembershipOracle* backend, bool force_sequential) {
    NoisyOracle noisy(backend, 0.25, /*seed=*/seed ^ 0xf1f5ULL);
    CountingOracle counting(&noisy);
    SequentialOracle sequential(&counting);
    std::string payload = WideRoundWorkload(n, seed)(
        force_sequential ? static_cast<MembershipOracle*>(&sequential)
                         : &counting);
    payload += " answers=" + std::to_string(counting.stats().answers);
    return payload;
  };
  QueryOracle batched_backend(target);
  QueryOracle sequential_backend(target);
  EXPECT_EQ(run(&batched_backend, false), run(&sequential_backend, true))
      << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineDifferentialTest,
    ::testing::Combine(::testing::Values(8, 16, 64),
                       ::testing::Range<uint64_t>(0, 5)));

// QuerySession composes its own stack (cache → counting → user): its
// learned query, history, question count and cache hits must equal the
// legacy harness RunStack's over the same learner.
TEST(PipelineCompositionTest, MatchesHandWiredStack) {
  Query target = RandomRp(8, 21);
  RunRecord hand = RunStack(
      [&] { return std::make_unique<QueryOracle>(target); }, RpWorkload(8),
      /*force_sequential=*/false);
  QueryOracle backend(target);
  QuerySession session(8, &backend);
  const Query learned = session.Learn();
  EXPECT_EQ(hand.payload.substr(0, hand.payload.find(" | ")),
            learned.ToString());
  std::vector<std::pair<TupleSet, bool>> history;
  for (HistoryEntry e : session.history()) {
    history.emplace_back(e.question, e.response);
  }
  EXPECT_EQ(history, hand.transcript);
  EXPECT_EQ(session.questions_asked(), hand.stats.questions);
  EXPECT_EQ(session.oracle_stats().batched_questions,
            hand.stats.batched_questions);
  EXPECT_EQ(session.cache_hits(), hand.cache_hits);
}

// ---------------------------------------------------------------------------
// Replay: batches spanning the recorded-prefix boundary must replay the
// matching prefix and forward exactly the tail, as the sequential path does.

TEST(ReplayBatchTest, BatchSpanningPrefixBoundaryMatchesSequential) {
  Query target = Query::Parse("∀x1x2→x3 ∃x4", 4);
  QueryOracle truth(target);

  // Record a transcript of five questions.
  TranscriptOracle recorder(&truth);
  Rng rng(5);
  std::vector<TupleSet> asked;
  for (int i = 0; i < 5; ++i) {
    asked.push_back(RandomObject(4, rng, 4));
    recorder.IsAnswer(asked.back());
  }

  TupleSet fresh = RandomObject(4, rng, 4);
  // One batch: three recorded questions, a deviation, then a question that
  // matches the prefix but arrives after the divergence.
  std::vector<TupleSet> batch(asked.begin(), asked.begin() + 3);
  batch.push_back(fresh);
  batch.push_back(asked[3]);

  auto run = [&](bool force_sequential) {
    CountingOracle counting(&truth);
    ReplayOracle replay(recorder.entries(), &counting);
    SequentialOracle sequential(&replay);
    MembershipOracle* top = force_sequential
                                ? static_cast<MembershipOracle*>(&sequential)
                                : &replay;
    BitVec answers;
    top->IsAnswerBatch(batch, answers.Prepare(batch.size()));
    std::string payload;
    for (size_t i = 0; i < batch.size(); ++i) {
      payload += answers.Get(i) ? '1' : '0';
    }
    payload += " replayed=" + std::to_string(replay.replayed()) +
               " asked=" + std::to_string(replay.asked()) +
               " fresh=" + std::to_string(counting.stats().questions);
    return payload;
  };
  std::string batched = run(false);
  std::string sequential = run(true);
  EXPECT_EQ(batched, sequential);
  EXPECT_EQ(batched.substr(batched.find("replayed")),
            "replayed=3 asked=2 fresh=2");
}

// ---------------------------------------------------------------------------
// Empty rounds: IsAnswerBatch({}, {}) decomposes into *zero* IsAnswer
// calls, so sequential equivalence says it is no round at all — every
// layer must leave its counters, transcript, noise stream and version
// space untouched, and nothing may reach the layer below.

TEST(EmptyRoundTest, EmptyBatchIsANoOpThroughTheWholeStack) {
  Query target = Query::Parse("∀x1→x2 ∃x3", 3);
  QueryOracle truth(target);
  NoisyOracle noisy(&truth, 0.5, /*seed=*/7);
  CountingOracle counting(&noisy);
  CachingOracle caching(&counting);
  TranscriptOracle transcript(&caching);

  BitVec bits;
  transcript.IsAnswerBatch({}, bits.Prepare(0));
  EXPECT_EQ(transcript.rounds(), 0);
  EXPECT_TRUE(transcript.entries().empty());
  EXPECT_EQ(caching.hits(), 0);
  EXPECT_EQ(caching.misses(), 0);
  EXPECT_EQ(counting.stats().rounds, 0);
  EXPECT_EQ(counting.stats().questions, 0);
  EXPECT_EQ(counting.stats().batched_questions, 0);
  EXPECT_EQ(noisy.flips(), 0);

  // Interleaved with real rounds, the empty batch consumes no round id
  // and no noise draw: the round sequence is exactly as if it never
  // happened.
  Rng rng(3);
  std::vector<TupleSet> round = {RandomObject(3, rng, 3)};
  transcript.IsAnswerBatch(round, bits.Prepare(1));
  transcript.IsAnswerBatch({}, bits.Prepare(0));
  std::vector<TupleSet> round2 = {RandomObject(3, rng, 3)};
  transcript.IsAnswerBatch(round2, bits.Prepare(1));
  EXPECT_EQ(transcript.rounds(), 2);
  ASSERT_EQ(transcript.entries().size(), 2u);
  EXPECT_EQ(transcript.entries()[0].round, 0);
  EXPECT_EQ(transcript.entries()[1].round, 1);
  EXPECT_EQ(counting.stats().rounds, 2);
}

TEST(EmptyRoundTest, AdversaryAndReplayIgnoreEmptyRounds) {
  std::vector<Query> candidates = {Query::Parse("∀x1→x2", 2),
                                   Query::Parse("∀x2→x1", 2),
                                   Query::Parse("∃x1x2", 2)};
  AdversaryOracle adversary(candidates);
  BitVec bits;
  adversary.IsAnswerBatch({}, bits.Prepare(0));
  EXPECT_EQ(adversary.candidates().size(), candidates.size())
      << "no questions were asked, so the version space is untouched";

  QueryOracle truth(Query::Parse("∀x1→x2", 2));
  TranscriptOracle recorder(&truth);
  Rng rng(5);
  TupleSet asked = RandomObject(2, rng, 2);
  recorder.IsAnswer(asked);
  ReplayOracle replay(recorder.entries(), &truth);
  replay.IsAnswerBatch({}, bits.Prepare(0));
  EXPECT_EQ(replay.replayed(), 0);
  EXPECT_EQ(replay.asked(), 0);
  // The recorded prefix is still intact for the next real question.
  EXPECT_EQ(replay.IsAnswer(asked), recorder.entries()[0].response);
  EXPECT_EQ(replay.replayed(), 1);
}

// ---------------------------------------------------------------------------
// CachingOracle forwarding: when a round's misses form one contiguous run,
// the inner oracle must receive a *view into the caller's span* — the
// copy-free regression pin for wide cached rounds. An inner probe records
// the span's data pointer to prove no TupleSet was gathered.

class SpanSpyOracle : public MembershipOracle {
 public:
  explicit SpanSpyOracle(Query target) : truth_(std::move(target)) {}

  bool IsAnswer(const TupleSet& question) override {
    return truth_.IsAnswer(question);
  }

  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    last_data_ = questions.data();
    last_size_ = questions.size();
    truth_.IsAnswerBatch(questions, answers);
  }

  const TupleSet* last_data() const { return last_data_; }
  size_t last_size() const { return last_size_; }

 private:
  QueryOracle truth_;
  const TupleSet* last_data_ = nullptr;
  size_t last_size_ = 0;
};

TEST(CachingForwardTest, ContiguousMissesForwardTheCallersSpanByView) {
  Query target = Query::Parse("∀x1x2→x3 ∃x4", 8);
  SpanSpyOracle spy(target);
  CachingOracle caching(&spy);
  // Provably distinct questions: each holds the single tuple whose packed
  // value is its index (n = 8 leaves room for 256 of them).
  auto distinct = [](uint64_t from, uint64_t count) {
    std::vector<TupleSet> questions;
    for (uint64_t v = from; v < from + count; ++v) {
      TupleSet q;
      q.Add(v);
      questions.push_back(std::move(q));
    }
    return questions;
  };
  std::vector<TupleSet> fresh = distinct(0, 64);

  // All-miss wide round: the inner span must alias the caller's storage.
  BitVec bits;
  caching.IsAnswerBatch(fresh, bits.Prepare(fresh.size()));
  EXPECT_EQ(spy.last_data(), fresh.data())
      << "an all-fresh round must forward questions.subspan(...), not a copy";
  EXPECT_EQ(spy.last_size(), fresh.size());
  EXPECT_EQ(caching.misses(), 64);

  // Hits at the edges keep the run contiguous: [cached, new…, cached]
  // forwards the middle of the caller's span, again by view.
  std::vector<TupleSet> edged;
  edged.push_back(fresh.front());  // hit
  for (TupleSet& q : distinct(64, 8)) edged.push_back(std::move(q));
  edged.push_back(fresh.back());  // hit
  caching.IsAnswerBatch(edged, bits.Prepare(edged.size()));
  EXPECT_EQ(spy.last_data(), edged.data() + 1);
  EXPECT_EQ(spy.last_size(), 8u);
  EXPECT_EQ(caching.hits(), 2);

  // A hit *between* misses breaks contiguity: the gather fallback fires
  // (inner sees its own storage) but the answers must still be exact.
  std::vector<TupleSet> mixed;
  mixed.push_back(distinct(80, 1)[0]);
  mixed.push_back(fresh[3]);  // hit in the middle
  mixed.push_back(distinct(81, 1)[0]);
  caching.IsAnswerBatch(mixed, bits.Prepare(mixed.size()));
  EXPECT_NE(spy.last_data(), mixed.data());
  EXPECT_EQ(spy.last_size(), 2u);
  QueryOracle reference(target);
  for (size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(bits.Get(i), reference.IsAnswer(mixed[i])) << "question " << i;
  }
}

// The session's correct-and-relearn workflow rides the replay path with a
// batching learner above it; the corrected-prefix guarantee must hold.
TEST(SessionBatchTest, CorrectAndRelearnReplaysThePrefix) {
  Query target = Query::Parse("∀x1→x2 ∃x3x4 ∃x5", 5);
  QueryOracle user(target);
  QuerySession session(5, &user);
  session.Learn();
  ASSERT_GT(session.history().size(), 2u);
  int64_t rounds_before = session.rounds();
  EXPECT_GT(rounds_before, 0);
  // The batched learner asks far fewer rounds than questions.
  EXPECT_LT(rounds_before,
            static_cast<int64_t>(session.history().size()));
  const Query relearned = session.CorrectAndRelearn(1);
  EXPECT_EQ(relearned.n(), 5);
  EXPECT_GT(session.oracle_stats().batched_questions, 0);
}

}  // namespace
}  // namespace qhorn
