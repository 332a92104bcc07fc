// The cancel-unwind signal for parked session jobs.
//
// The paper's protocol is interactive: each oracle round may be a real
// user answering membership questions with seconds-to-minutes latency, so
// an oracle backend that cannot answer a round synchronously
// (PendingOracle, src/oracle/pending.h) parks the job's fiber
// (src/util/fiber.h) on the round until the answers arrive. A
// parked fiber that must be abandoned instead (correction, close,
// shutdown) is resumed once more with a cancel requested: the parked
// wait-site throws JobSuspended, which unwinds the job's frames through
// the ordinary exception machinery — the oracle decorators roll back the
// abandoned round on the way — up to the fiber body's boundary.
//
// JobSuspended is a control-flow signal, not an error: it deliberately
// does not derive from std::exception so generic catch (const
// std::exception&) handlers cannot swallow it. It must be caught at the
// job boundary (SessionRouter's fiber body). The Executor treats a suspension
// escaping onto one of its lanes as a programming error and aborts with a
// diagnostic — a lost suspension would silently leak the session.

#ifndef QHORN_UTIL_SUSPEND_H_
#define QHORN_UTIL_SUSPEND_H_

namespace qhorn {

/// Thrown by a cancelled parked wait-site (PendingOracle) to unwind the
/// job at its round boundary. Carries no payload.
struct JobSuspended {};

}  // namespace qhorn

#endif  // QHORN_UTIL_SUSPEND_H_
