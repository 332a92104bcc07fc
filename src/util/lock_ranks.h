// The single total order over every mutex in the tree.
//
// Clang thread-safety analysis (src/util/thread_annotations.h) proves
// *which* lock guards each field; it cannot prove locks are acquired in a
// deadlock-free *order*. That is the rank checker's job: every
// qhorn::Mutex / qhorn::SharedMutex is constructed with a name and a rank
// from this enum, and in debug/sanitizer builds a thread-local held-lock
// stack CHECK-fails on any same-or-lower-rank acquisition
// (src/util/checked_mutex.h). The rule is strict: a thread may only
// acquire a lock of strictly greater rank than every lock it already
// holds.
//
// The order below is derived from the real nesting paths in the code, not
// aspiration. Verified chains (each inner acquisition happens while the
// outer lock is held):
//
//   kRouterShard < kWalShard < kFaultFs / kFs
//     The durability chain: DurableRouter holds no mutex of its own,
//     SessionRouter's ProvideAnswers and Close invoke the commit hook
//     while holding exactly one shard mutex, the hook appends to that
//     shard's WAL (SessionLog::AppendRecord holds the log mutex across
//     WritableFile::Append/Sync), and MemFs/FaultFs lock their own mutex
//     inside the file operations. FaultFs releases its mutex before
//     delegating to the base file, but it ranks below kFs so holding it
//     across the call would also be legal. The pending-round poll takes a
//     shard mutex only to swap out the rounds announced since the last
//     poll, and calls nothing while holding it.
//
// Everything else is a leaf — nothing is acquired while holding it:
//
//   kExecutor      the Executor's one task queue; tasks run with it
//                  released.
//   kMemo          the CompactAntichainsOfWidth memo cache in
//                  src/core/enumerate.cc.
//
// The executor rank sits at the very bottom deliberately: no legitimate
// path takes an executor lock while holding a service lock, and ranking
// it lowest turns "Post() while holding a router mutex" — which would
// deadlock outright at concurrency 1, where Post runs the task inline —
// into a loud rank violation in every checked build.
//
// Adding a mutex: pick the lowest rank consistent with every path that
// holds your lock while acquiring another (gaps in the numbering are left
// for exactly this), name it after the subsystem, and document the chain
// here. See README "Static analysis & lock discipline".

#ifndef QHORN_UTIL_LOCK_RANKS_H_
#define QHORN_UTIL_LOCK_RANKS_H_

namespace qhorn {

enum class LockRank : int {
  kExecutor = 10,       // Executor::mutex_ (leaf)
  kRouterShard = 40,    // SessionRouter::mutex_ (one per shard)
  kWalShard = 50,       // SessionLog::mutex_ (one per WAL shard)
  kFaultFs = 55,        // FaultFs fault-schedule mutex
  kFs = 60,             // MemFs file-table mutex
  kMemo = 90,           // enumerate.cc antichain memo cache (leaf)
};

/// Human-readable rank for rank-violation diagnostics.
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kExecutor: return "executor";
    case LockRank::kRouterShard: return "router-shard";
    case LockRank::kWalShard: return "wal-shard";
    case LockRank::kFaultFs: return "fault-fs";
    case LockRank::kFs: return "fs";
    case LockRank::kMemo: return "memo";
  }
  return "unknown";
}

}  // namespace qhorn

#endif  // QHORN_UTIL_LOCK_RANKS_H_
