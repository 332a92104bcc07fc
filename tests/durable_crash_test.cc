// The crash-recovery differential sweep: every seed derives a hostile
// fleet (the same fleets as workload_fuzz_test.cc) and runs it against a
// DurableRouter on an in-memory filesystem while a seeded failing machine
// kills the service at round boundaries and injects mid-append faults
// (torn appends, sync failures). After any number of crashes, each
// session's fingerprint must equal the 1-lane synchronous reference bit
// for bit — and a final crash of the *completed* service must recover
// into a router that reproduces those fingerprints from the log alone.
//
// CI sweeps seeds 1..64 by default; the range and budget are overridable
// without a rebuild (the crash-recovery CI job raises the seed count):
//
//   QHORN_CRASH_SEEDS=256          # seeds 1..256
//   QHORN_CRASH_SEEDS=9000:32      # seeds 9000..9031
//   QHORN_CRASH_SEEDS=1337:1       # one seed — the repro shape
//   QHORN_CRASH_BUDGET_MS=60000
//
// Every failure message carries the one-flag seed repro line.
//
// CTest label: durable (runs under the asan and tsan CI presets).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/durable/crash_harness.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

struct SeedRange {
  uint64_t start = 1;
  uint64_t count = 64;
};

/// Parses "COUNT" or "START:COUNT"; anything unparsable keeps defaults.
SeedRange ParseSeedRange(const char* env) {
  SeedRange range;
  if (env == nullptr || env[0] == '\0') return range;
  std::string s(env);
  size_t colon = s.find(':');
  try {
    if (colon == std::string::npos) {
      range.count = std::stoull(s);
    } else {
      range.start = std::stoull(s.substr(0, colon));
      range.count = std::stoull(s.substr(colon + 1));
    }
  } catch (...) {
    ADD_FAILURE() << "unparsable QHORN_CRASH_SEEDS value: " << s;
  }
  if (range.count == 0) range.count = 1;
  return range;
}

int64_t BudgetMs() {
  const char* env = std::getenv("QHORN_CRASH_BUDGET_MS");
  if (env == nullptr || env[0] == '\0') return 240000;
  return std::atoll(env);
}

TEST(DurableCrashTest, SeedRangeParsing) {
  EXPECT_EQ(ParseSeedRange(nullptr).start, 1u);
  EXPECT_EQ(ParseSeedRange(nullptr).count, 64u);
  EXPECT_EQ(ParseSeedRange("256").count, 256u);
  EXPECT_EQ(ParseSeedRange("9000:32").start, 9000u);
  EXPECT_EQ(ParseSeedRange("9000:32").count, 32u);
  EXPECT_EQ(ParseSeedRange("1337:0").count, 1u);
}

TEST(DurableCrashTest, PinnedSeedsRecoverBitIdentical) {
  // The crash differential on fixed seeds, whatever range the sweep below
  // is given: every parked fiber dies with each crash, and each recovered
  // incarnation re-parks its sessions from the log alone. The hostile arm
  // must still match the bare-session reference, and so must the final
  // from-log recovery.
  for (uint64_t seed : {5u, 17u, 23u}) {
    WorkloadSpec spec = WorkloadSpec::FromSeed(seed);
    CrashOutcome out = RunCrashDifferential(spec);
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_GT(out.crashes, 0) << spec.ReproLine();
  }
}

TEST(DurableCrashTest, CrashedFleetsRecoverBitIdentical) {
  SeedRange range = ParseSeedRange(std::getenv("QHORN_CRASH_SEEDS"));
  const int64_t budget_ms = BudgetMs();
  const auto t0 = std::chrono::steady_clock::now();

  uint64_t swept = 0;
  int64_t crashes = 0;
  int64_t soft_retries = 0;
  int64_t rounds = 0;
  int64_t replayed = 0;
  int64_t duplicates_skipped = 0;
  int64_t torn_truncated = 0;
  for (uint64_t seed = range.start; seed < range.start + range.count; ++seed) {
    CrashOutcome out = RunCrashDifferential(WorkloadSpec::FromSeed(seed));
    // out.failure carries "--seed=N": one flag reproduces the fleet, the
    // delivery schedule, the noise streams and the crash schedule.
    ASSERT_TRUE(out.ok) << out.failure;
    ++swept;
    crashes += out.crashes;
    soft_retries += out.soft_retries;
    rounds += out.hostile.rounds_answered;
    replayed += out.recovery.rounds_replayed + out.final_recovery.rounds_replayed;
    duplicates_skipped += out.recovery.duplicate_records_skipped +
                          out.final_recovery.duplicate_records_skipped;
    torn_truncated += out.recovery.torn_tails_truncated +
                      out.final_recovery.torn_tails_truncated;

    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (elapsed > budget_ms && seed + 1 < range.start + range.count) {
      std::cout << "[durable_crash] TIME BUDGET EXHAUSTED after " << swept
                << "/" << range.count << " seeds (" << elapsed
                << " ms > " << budget_ms
                << " ms) — the remaining seeds were NOT swept\n";
      break;
    }
  }
  std::cout << "[durable_crash] swept " << swept << " seeds: " << crashes
            << " kill+recover cycles, " << soft_retries
            << " sync-failure retries, " << rounds
            << " rounds answered, " << replayed
            << " rounds replayed from the log, " << duplicates_skipped
            << " duplicate records skipped, " << torn_truncated
            << " torn tails truncated\n";
  // A sweep that never crashed, never tore an append and never forced a
  // retry would test nothing this suite exists for — fail loudly rather
  // than report a green nothing.
  EXPECT_GT(rounds, 0);
  EXPECT_GT(crashes, 0) << "no seed ever killed the service";
  EXPECT_GT(replayed, 0) << "no recovery ever replayed a logged round";
  EXPECT_GT(soft_retries + duplicates_skipped + torn_truncated, 0)
      << "the sweep never exercised a mid-append fault path";
}

}  // namespace
}  // namespace qhorn
