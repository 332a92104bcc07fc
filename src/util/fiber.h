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
// is safe because a switch carries no per-thread state, and is annotated
// for the sanitizers.
//
// The switch (x86-64 Linux): a parked side is one saved stack pointer.
// Switching pushes what the System V ABI makes callee-saved — rbx, rbp,
// r12–r15, MXCSR and the x87 control word — onto the current stack,
// stores rsp, loads the other side's rsp and pops the same set. No
// syscall, no signal-mask save, nothing else the compiler does not
// already expect a call to clobber. A floating-point mode set on one
// side stays on that side. Other targets switch with ucontext, which
// also saves the signal mask (one syscall per switch).
//
// The switch does not maintain a CET shadow stack: it returns into the
// other side's frame by a `ret` that no `call` pushed, which a hardware
// shadow stack would reject. So src/util/CMakeLists.txt compiles this file
// with -fcf-protection=branch: its object never claims shadow-stack
// compatibility, no binary that links it is marked, and no loader turns a
// shadow stack on for one. (Checked with gcc 12.2: under
// -fcf-protection=full the object's GNU property note reads "IBT, SHSTK",
// with the flag "IBT". Without either flag, as on Debian's gcc, and on
// glibc 2.36, which predates user shadow stacks, nothing is marked.)
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

#include <cstddef>
#include <functional>

#if defined(__linux__) && defined(__x86_64__)
#define QHORN_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

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

  /// Bytes of the usable stack that are resident now: one mincore over
  /// it, counting whole pages. Untouched pages and the PROT_NONE guard
  /// page below the stack never count; pages a deeper excursion dirtied
  /// keep counting after it returns (nothing trims a parked stack). Safe
  /// on a parked or never-started fiber, from any thread that excludes
  /// Resume() — the owner's lock, or a quiesced router.
  size_t ResidentBytes() const;

 private:
#if defined(QHORN_FIBER_ASM_SWITCH)
  // A parked side is the stack pointer its switch saved (see the file
  // comment); a fiber that never ran starts at an entry stub that calls
  // Entry(this).
  using Context = void*;
  static void Entry(Fiber* self);
#else
  using Context = ucontext_t;
  static void Trampoline(unsigned hi, unsigned lo);
#endif
  void Run();

  std::function<void()> body_;
  char* alloc_ = nullptr;        // mmap base (guard page first)
  char* stack_base_ = nullptr;   // usable stack bottom (above the guard)
  size_t alloc_bytes_ = 0;
  size_t stack_size_ = 0;        // usable bytes
  Context fiber_ctx_{};
  Context host_ctx_{};
  bool started_ = false;
  bool finished_ = false;

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
