// Fiber — a stackful continuation for parked session jobs.
//
// The pending-round protocol suspends a job at a user-boundary round and
// resumes it when the answers arrive. On a fiber the suspended job's call
// stack stays alive on its own mmap'd stack, and a resume is one context
// switch back into the exact frame that asked the question — O(1) compute
// per resume, O(rounds) per session, with learners left untouched. (The
// alternative, unwinding at the round and re-running the job over the
// answered prefix replayed, costs O(prefix) per resume and O(rounds²) per
// session.)
//
// This is the minimal fiber for that one job: cooperatively scheduled,
// one-shot (runs its body to completion once), switched only by its owner
// (the session runner, which already serializes per-session work), never
// migrated while running. Resume() may be called from a different OS thread
// than the previous Resume() — executor lanes hand sessions around — which
// is safe for ucontext and annotated for the sanitizers.
//
// Sanitizer support: stack switches confuse AddressSanitizer (stack bounds)
// and ThreadSanitizer (per-stack shadow state) unless annotated. Both
// runtimes ship a fiber API for exactly this, and every switch here is
// wrapped in the corresponding __sanitizer_*_switch_fiber /
// __tsan_switch_to_fiber calls when compiled under the sanitizer. The
// low end of every fiber stack carries a PROT_NONE guard page, so an
// overflow faults instead of scribbling over a neighbour.
//
// Lifecycle contract: a Fiber must have finished (its body returned or
// unwound) before destruction — destroying a parked stack would skip the
// destructors of every live frame on it. Owners that need to tear down a
// parked fiber (correction, close, router shutdown) first make the parked
// wait-site throw (PendingOracle::RequestCancel) and Resume() once more:
// the stack unwinds through the ordinary exception machinery, the body
// catches at its boundary, and the fiber finishes cleanly.

#ifndef QHORN_UTIL_FIBER_H_
#define QHORN_UTIL_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace qhorn {

class Fiber {
 public:
  /// 512 KiB of usable stack: a session job's deepest path (learner lattice
  /// walk over a compiled-query pipeline) uses a small fraction of this,
  /// and the allocation is lazily committed — resident memory is only the
  /// pages actually touched, so a fleet of parked sessions stays cheap.
  static constexpr size_t kDefaultStackBytes = 512 * 1024;

  /// Allocates the stack; the body does not start until the first Resume().
  explicit Fiber(std::function<void()> body,
                 size_t stack_bytes = kDefaultStackBytes);
  /// Requires finished() (or never resumed); aborts otherwise — see the
  /// lifecycle contract above.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches into the fiber: starts the body on the first call, returns
  /// from the parked Yield() on later ones. Returns when the fiber yields
  /// or its body finishes. Must not be called on a finished fiber, from
  /// inside the fiber, or concurrently with itself.
  void Resume();

  /// Switches back to the Resume() caller; returns when resumed again.
  /// Must be called from inside the fiber's body.
  void Yield();

  /// True once the body has returned (or unwound past it): the fiber holds
  /// no live frames and may be destroyed.
  bool finished() const { return finished_; }

  /// Total mapped stack bytes (guard page included) — the memory a parked
  /// continuation keeps resident-able, reported as the session's
  /// parked-state footprint.
  size_t stack_bytes() const { return alloc_bytes_; }

  /// Returns the dead region of a *parked* stack to the kernel. Stacks
  /// grow down, so everything below the parked frame's stack pointer is
  /// space only deeper future calls would reuse; madvise(MADV_DONTNEED)
  /// releases those pages (minus one slack page of red-zone headroom)
  /// while keeping the mapping — they refault zero-filled if the resumed
  /// continuation ever recurses that deep again. Returns the mapped bytes
  /// still backing the fiber afterwards (alloc minus trimmed); on a fiber
  /// that never started, already finished, or a platform without the
  /// trim, returns stack_bytes() untrimmed. Owner-only, like Resume().
  size_t TrimColdStack();

  /// Bytes the last TrimColdStack() released (0 after a Resume(): the
  /// pages fault back in as the continuation touches them).
  size_t trimmed_bytes() const { return trimmed_bytes_; }

 private:
  static void Trampoline(unsigned hi, unsigned lo);
  void Run();

  std::function<void()> body_;
  char* alloc_ = nullptr;        // mmap base (guard page first)
  char* stack_base_ = nullptr;   // usable stack bottom (above the guard)
  size_t alloc_bytes_ = 0;
  size_t stack_size_ = 0;        // usable bytes
  ucontext_t fiber_ctx_;
  ucontext_t host_ctx_;
  bool started_ = false;
  bool finished_ = false;
  size_t trimmed_bytes_ = 0;

  // Sanitizer bookkeeping (unused members cost nothing when the build has
  // no sanitizer; keeping them unconditional keeps the ABI stable across
  // presets).
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
  void* asan_host_fake_ = nullptr;   // host fake stack across a switch-in
  void* asan_fiber_fake_ = nullptr;  // fiber fake stack across a yield
  const void* asan_host_bottom_ = nullptr;
  size_t asan_host_size_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_UTIL_FIBER_H_
