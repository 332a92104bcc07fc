// The suspension signal for continuation-style session jobs.
//
// The paper's protocol is interactive: each oracle round may be a real
// user answering membership questions with seconds-to-minutes latency. A
// job that blocks a thread for that long pins an executor lane per open
// session — the opposite of thousands of sessions sharing a small pool.
// Instead, an oracle backend that cannot answer a round synchronously
// (PendingOracle, src/oracle/pending.h) records the round's questions and
// either parks the job's fiber (the default fiber resume) or throws
// JobSuspended. A throw unwinds the in-flight job off its lane at the
// round boundary, the lane is free the moment the unwind reaches the job
// runner, and the session re-enters later by re-running the job with the
// answered prefix replayed (ReplayOracle) — continuations by replay, so
// learners need no restructuring. A parked fiber that must be abandoned
// (correction, close, shutdown) is unwound by the same throw.
//
// JobSuspended is a control-flow signal, not an error: it deliberately
// does not derive from std::exception so generic catch (const
// std::exception&) handlers cannot swallow it. It must be caught at the
// job boundary (SessionRouter's runner). The Executor treats a suspension
// escaping onto one of its lanes as a programming error and aborts with a
// diagnostic — a lost suspension would silently leak the session.

#ifndef QHORN_UTIL_SUSPEND_H_
#define QHORN_UTIL_SUSPEND_H_

namespace qhorn {

/// Thrown by a pending-capable oracle backend to unwind the current job at
/// a round boundary. Carries no payload: the suspending backend retains
/// the pending round; the catcher harvests it from there.
struct JobSuspended {};

}  // namespace qhorn

#endif  // QHORN_UTIL_SUSPEND_H_
