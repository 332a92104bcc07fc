// The concurrent session service: Executor and SessionRouter.
//
// The load-bearing property is determinism under concurrency: a session's
// transcript depends only on its own job sequence, never on scheduling.
// The stress tests drive 8–64 concurrent pending sessions over mixed
// learn/verify/revise workloads on a multi-lane router, answered
// in-process from one QueryOracle per session, and assert every
// per-session observable equals a single-threaded replay of the same jobs.
// Run under the tsan preset in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/executor.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// Executor.

/// Four producer threads Post kTasks tasks between them; every
/// kChildEvery-th task Posts a child from its lane. Records, per task, how
/// often it ran and which thread ran it, and the producers' thread ids.
struct ProducerRun {
  static constexpr int kProducers = 4;
  static constexpr int kTasks = 10000;
  static constexpr int kChildEvery = 7;
  static constexpr int kChildren = (kTasks + kChildEvery - 1) / kChildEvery;

  std::vector<std::atomic<int>> parent_runs;
  std::vector<std::atomic<int>> child_runs;
  std::vector<std::thread::id> parent_thread;
  std::vector<std::thread::id> child_thread;
  std::vector<std::thread::id> producer_ids;

  explicit ProducerRun(Executor* executor)
      : parent_runs(kTasks),
        child_runs(kChildren),
        parent_thread(kTasks),
        child_thread(kChildren),
        producer_ids(kProducers) {
    std::atomic<int> done{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([this, executor, p, &done] {
        producer_ids[static_cast<size_t>(p)] = std::this_thread::get_id();
        for (int i = p; i < kTasks; i += kProducers) {
          executor->Post([this, executor, i, &done] {
            parent_runs[static_cast<size_t>(i)].fetch_add(1);
            parent_thread[static_cast<size_t>(i)] = std::this_thread::get_id();
            if (i % kChildEvery == 0) {
              size_t c = static_cast<size_t>(i / kChildEvery);
              executor->Post([this, c, &done] {
                child_runs[c].fetch_add(1);
                child_thread[c] = std::this_thread::get_id();
                done.fetch_add(1, std::memory_order_release);
              });
            }
            done.fetch_add(1, std::memory_order_release);
          });
        }
      });
    }
    for (std::thread& t : producers) t.join();
    while (done.load(std::memory_order_acquire) < kTasks + kChildren) {
      std::this_thread::yield();
    }
  }
};

TEST(ExecutorTest, ProducersAndLaneChildrenRunExactlyOnce) {
  for (int lanes : {2, 4, 8}) {
    Executor executor(lanes);
    EXPECT_EQ(executor.concurrency(), lanes);
    ProducerRun run(&executor);
    std::set<std::thread::id> runners;
    for (int i = 0; i < ProducerRun::kTasks; ++i) {
      ASSERT_EQ(run.parent_runs[static_cast<size_t>(i)].load(), 1)
          << "task " << i << " lanes " << lanes;
      runners.insert(run.parent_thread[static_cast<size_t>(i)]);
    }
    for (int c = 0; c < ProducerRun::kChildren; ++c) {
      ASSERT_EQ(run.child_runs[static_cast<size_t>(c)].load(), 1)
          << "child " << c << " lanes " << lanes;
      runners.insert(run.child_thread[static_cast<size_t>(c)]);
    }
    EXPECT_LE(runners.size(), static_cast<size_t>(lanes))
        << "only the pool's own workers run tasks";
    for (std::thread::id producer : run.producer_ids) {
      EXPECT_EQ(runners.count(producer), 0u)
          << "a multi-lane Post never runs its task in the caller";
    }
  }
}

TEST(ExecutorTest, OneLaneRunsEveryTaskInItsCaller) {
  Executor executor(1);
  EXPECT_EQ(executor.concurrency(), 1);
  ProducerRun run(&executor);
  for (int i = 0; i < ProducerRun::kTasks; ++i) {
    ASSERT_EQ(run.parent_runs[static_cast<size_t>(i)].load(), 1) << i;
    // Task i was posted by producer i % kProducers; a child by its parent.
    std::thread::id poster =
        run.producer_ids[static_cast<size_t>(i % ProducerRun::kProducers)];
    EXPECT_EQ(run.parent_thread[static_cast<size_t>(i)], poster) << i;
    if (i % ProducerRun::kChildEvery == 0) {
      size_t c = static_cast<size_t>(i / ProducerRun::kChildEvery);
      ASSERT_EQ(run.child_runs[c].load(), 1) << "child " << c;
      EXPECT_EQ(run.child_thread[c], poster) << "child " << c;
    }
  }
}

TEST(ExecutorTest, PostRunsInlineAtConcurrencyOne) {
  Executor executor(1);
  bool ran = false;
  executor.Post([&] { ran = true; });
  EXPECT_TRUE(ran) << "a 1-lane executor is synchronous";
}

TEST(ExecutorTest, QhornThreadsOverridesDefaultConcurrency) {
  // The override is read per call, so the test can set it temporarily.
  setenv("QHORN_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(Executor::DefaultConcurrency(), 3);
  setenv("QHORN_THREADS", "not-a-number", 1);
  EXPECT_GE(Executor::DefaultConcurrency(), 1);
  unsetenv("QHORN_THREADS");
  EXPECT_GE(Executor::DefaultConcurrency(), 1);
}

// ---------------------------------------------------------------------------
// SessionRouter: ordering, stats, aggregate behaviour.

/// Simulated users over the pending protocol: one QueryOracle per session,
/// answering every round a poll delivers until no session awaits a user.
class SimulatedUsers {
 public:
  explicit SimulatedUsers(SessionRouter* router) : router_(router) {}

  /// Opens a pending session whose user holds `target`.
  SessionRouter::SessionId Open(const Query& target) {
    SessionRouter::SessionId id = router_->OpenPending(target.n());
    EXPECT_NE(id, 0);
    users_[id] = std::make_unique<QueryOracle>(target);
    return id;
  }

  /// The embedding server's loop: drain, poll, answer, until a poll
  /// delivers nothing.
  void AnswerAll() {
    BitVec bits;
    for (;;) {
      router_->Drain();
      std::vector<PendingRound> rounds = router_->PendingRounds();
      if (rounds.empty()) return;
      for (const PendingRound& round : rounds) {
        BitSpan span = bits.Prepare(round.questions.size());
        users_.at(round.session_id)->IsAnswerBatch(round.questions, span);
        EXPECT_EQ(
            router_->ProvideAnswers(round.session_id, round.round_id, span),
            ProvideOutcome::kResumed);
      }
    }
  }

 private:
  SessionRouter* router_;
  std::map<SessionRouter::SessionId, std::unique_ptr<QueryOracle>> users_;
};

TEST(SessionRouterTest, JobsOfOneSessionRunInSubmissionOrder) {
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(4);
  std::vector<int> order;
  std::mutex order_mutex;
  for (int i = 0; i < 16; ++i) {
    router.Submit(id, [i, &order, &order_mutex](QuerySession&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    });
  }
  router.Drain();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SessionRouterTest, LearnVerifyReviseAcrossSessions) {
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  Query target = Query::Parse("∀x1x2→x5 ∃x3x4", 5);
  SimulatedUsers users(&router);
  std::vector<SessionRouter::SessionId> ids;
  for (int s = 0; s < 12; ++s) {
    ids.push_back(users.Open(target));
  }
  for (size_t s = 0; s < ids.size(); ++s) {
    switch (s % 3) {
      case 0:
        router.SubmitLearn(ids[s]);
        break;
      case 1:
        router.SubmitVerify(ids[s], target);
        break;
      default:
        router.SubmitRevise(ids[s], Query::Parse("∀x1x2→x5 ∃x3x4x5", 5));
        break;
    }
  }
  users.AnswerAll();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 12);
  EXPECT_EQ(stats.jobs, 12);
  EXPECT_EQ(stats.learns, 4);
  EXPECT_EQ(stats.verifies, 4);
  EXPECT_EQ(stats.revisions, 4);
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_GT(stats.questions, 0);
  EXPECT_GT(stats.rounds, 0);
  for (SessionRouter::SessionId id : ids) {
    ASSERT_TRUE(router.session(id).current_query().has_value());
    EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
  }
}

// ---------------------------------------------------------------------------
// The stress test (the router's contract): per-session transcripts under a
// many-lane router equal their single-threaded replays, job for job.

struct SessionPlan {
  Query target;
  // 0 = learn, 1 = verify(correct), 2 = verify(wrong), 3 = revise(close).
  std::vector<int> jobs;
  Query wrong;
  Query close;
};

SessionPlan MakePlan(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = static_cast<int>(rng.Range(0, 2));
  opts.theta = 2;
  opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
  opts.conj_size_max = std::min(4, n);
  SessionPlan plan;
  plan.target = RandomRolePreserving(n, rng, opts);
  plan.wrong = RandomRolePreserving(n, rng, opts);
  plan.close = plan.target;  // revise from the target itself: quick + valid
  size_t job_count = 1 + static_cast<size_t>(rng.Range(0, 2));
  plan.jobs.push_back(0);  // always start with a learn
  for (size_t j = 1; j < job_count; ++j) {
    plan.jobs.push_back(static_cast<int>(rng.Range(0, 3)));
  }
  return plan;
}

void SubmitPlan(SessionRouter& router, SessionRouter::SessionId id,
                const SessionPlan& plan) {
  for (int job : plan.jobs) {
    switch (job) {
      case 0:
        router.SubmitLearn(id);
        break;
      case 1:
        router.SubmitVerify(id, plan.target);
        break;
      case 2:
        router.SubmitVerify(id, plan.wrong);
        break;
      default:
        router.SubmitRevise(id, plan.close);
        break;
    }
  }
}

class RouterStressTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RouterStressTest, TranscriptsEqualSingleThreadedReplay) {
  auto [sessions, threads] = GetParam();
  int n = 8;

  std::vector<SessionPlan> plans;
  for (int s = 0; s < sessions; ++s) {
    plans.push_back(MakePlan(n, 1000 + static_cast<uint64_t>(s)));
  }

  auto run = [&](int lanes) {
    std::vector<std::string> fingerprints;
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter router(opts);
    SimulatedUsers users(&router);
    std::vector<SessionRouter::SessionId> ids;
    for (int s = 0; s < sessions; ++s) {
      ids.push_back(users.Open(plans[static_cast<size_t>(s)].target));
    }
    for (int s = 0; s < sessions; ++s) {
      SubmitPlan(router, ids[static_cast<size_t>(s)],
                 plans[static_cast<size_t>(s)]);
    }
    users.AnswerAll();
    for (int s = 0; s < sessions; ++s) {
      fingerprints.push_back(
          SessionFingerprint(router.session(ids[static_cast<size_t>(s)])));
    }
    return fingerprints;
  };

  std::vector<std::string> concurrent = run(threads);
  std::vector<std::string> replay = run(1);
  ASSERT_EQ(concurrent.size(), replay.size());
  for (size_t s = 0; s < concurrent.size(); ++s) {
    EXPECT_EQ(concurrent[s], replay[s])
        << "session " << s << " diverged under " << threads << " lanes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RouterStressTest,
    ::testing::Values(std::make_tuple(8, 4), std::make_tuple(16, 4),
                      std::make_tuple(32, 8), std::make_tuple(64, 8)));

}  // namespace
}  // namespace qhorn
