#include "src/util/checked_mutex.h"

#if QHORN_LOCK_RANK_CHECKS

#include <sstream>
#include <string>

#include "src/util/check.h"

namespace qhorn {
namespace {

struct HeldLock {
  const void* lock;
  const char* name;
  LockRank rank;
};

// Deepest legitimate nesting today is 4 (router-shard → wal-shard →
// fault-fs → fs); 32 leaves generous headroom and keeps the stack a flat
// thread-local array with no allocation on the lock path.
constexpr int kMaxHeldLocks = 32;
thread_local HeldLock tls_held[kMaxHeldLocks];
thread_local int tls_held_count = 0;

std::string DescribeLock(const char* name, LockRank rank) {
  std::ostringstream out;
  out << "'" << name << "' (rank " << LockRankName(rank) << "/"
      << static_cast<int>(rank) << ")";
  return out.str();
}

std::string HeldStackString() {
  if (tls_held_count == 0) return "[]";
  std::ostringstream out;
  out << "[";
  for (int i = 0; i < tls_held_count; ++i) {
    if (i > 0) out << " -> ";
    out << DescribeLock(tls_held[i].name, tls_held[i].rank);
  }
  out << "]";
  return out.str();
}

}  // namespace

void LockRankChecker::NoteAcquire(const void* lock, const char* name,
                                  LockRank rank) {
  for (int i = 0; i < tls_held_count; ++i) {
    QHORN_CHECK_MSG(tls_held[i].lock != lock,
                    "lock-rank: recursive acquisition of "
                        << DescribeLock(name, rank)
                        << "; held stack: " << HeldStackString());
  }
  if (tls_held_count > 0) {
    const HeldLock& top = tls_held[tls_held_count - 1];
    // Strictly greater: same-rank nesting is forbidden too — two locks of
    // one rank (e.g. two router shards) acquired together by different
    // threads in opposite orders is the classic cross-shard deadlock.
    QHORN_CHECK_MSG(static_cast<int>(rank) > static_cast<int>(top.rank),
                    "lock-rank violation: acquiring "
                        << DescribeLock(name, rank) << " while holding "
                        << DescribeLock(top.name, top.rank)
                        << "; acquisitions must strictly increase in rank "
                           "(src/util/lock_ranks.h); held stack: "
                        << HeldStackString());
  }
  QHORN_CHECK_MSG(tls_held_count < kMaxHeldLocks,
                  "lock-rank: held-lock stack overflow acquiring "
                      << DescribeLock(name, rank)
                      << "; held stack: " << HeldStackString());
  tls_held[tls_held_count++] = {lock, name, rank};
}

void LockRankChecker::NoteRelease(const void* lock, const char* name) {
  // Releases are usually LIFO (scoped guards) but out-of-order release is
  // legal; scan from the top.
  for (int i = tls_held_count - 1; i >= 0; --i) {
    if (tls_held[i].lock != lock) continue;
    for (int j = i; j + 1 < tls_held_count; ++j) {
      tls_held[j] = tls_held[j + 1];
    }
    --tls_held_count;
    return;
  }
  QHORN_CHECK_MSG(false, "lock-rank: releasing '"
                             << name
                             << "' which this thread does not hold; "
                                "held stack: "
                             << HeldStackString());
}

int LockRankChecker::HeldCount() { return tls_held_count; }

int LockRankChecker::HeldCountAtRank(LockRank rank) {
  int count = 0;
  for (int i = 0; i < tls_held_count; ++i) {
    if (tls_held[i].rank == rank) ++count;
  }
  return count;
}

void LockRankChecker::AssertNoneHeld(const char* where) {
  QHORN_CHECK_MSG(tls_held_count == 0,
                  "lock-rank: " << where
                                << " must run with no checked locks held; "
                                   "held stack: "
                                << HeldStackString());
}

void LockRankChecker::AssertHeldCountAtRank(LockRank rank, int expected,
                                            const char* where) {
  int held = HeldCountAtRank(rank);
  QHORN_CHECK_MSG(held == expected,
                  "lock-rank: " << where << " must hold exactly " << expected
                                << " lock(s) of rank " << LockRankName(rank)
                                << ", holds " << held
                                << "; held stack: " << HeldStackString());
}

}  // namespace qhorn

#endif  // QHORN_LOCK_RANK_CHECKS
