#include "src/util/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/checked_mutex.h"

// Sanitizer fiber annotations. Declared here (not via the sanitizer
// headers) so the file compiles identically whether or not the interface
// headers are installed; the symbols resolve from the sanitizer runtime,
// which is linked exactly when the macro is defined.
#if defined(__SANITIZE_ADDRESS__)
#define QHORN_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QHORN_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define QHORN_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QHORN_FIBER_TSAN 1
#endif
#endif

#if defined(QHORN_FIBER_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
}
#endif

#if defined(QHORN_FIBER_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(QHORN_FIBER_ASM_SWITCH)
extern "C" {
// Pushes the callee-saved state (layout below), stores rsp in *save_sp,
// loads load_sp into rsp, pops the same layout from there and returns into
// whatever frame that stack parked — or, on a fiber's first switch-in,
// into qhorn_fiber_entry.
//
//   load_sp + 0:  MXCSR (4 bytes), x87 control word (2 bytes), 2 spare
//   load_sp + 8:  r15, r14, r13, r12, rbx, rbp
//   load_sp + 56: return address
void qhorn_fiber_switch(void** save_sp, void* load_sp);
// A new fiber's first instruction: calls r13(r12), that is
// Fiber::Entry(fiber). Never returns; `.cfi_undefined rip` ends every
// unwind and backtrace here, as the outermost frame of the fiber stack.
void qhorn_fiber_entry();
}

asm(R"(
  .pushsection .text
  .globl qhorn_fiber_switch
  .hidden qhorn_fiber_switch
  .type qhorn_fiber_switch, @function
  .p2align 4
qhorn_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size qhorn_fiber_switch, .-qhorn_fiber_switch

  .globl qhorn_fiber_entry
  .hidden qhorn_fiber_entry
  .type qhorn_fiber_entry, @function
  .p2align 4
qhorn_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size qhorn_fiber_entry, .-qhorn_fiber_entry
  .popsection
)");
#endif

namespace qhorn {

Fiber::Fiber(std::function<void()> body, size_t stack_bytes)
    : body_(std::move(body)) {
  QHORN_CHECK(body_ != nullptr);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  // Round the usable stack up to whole pages and add one guard page at the
  // low end (stacks grow down): an overflow hits PROT_NONE and faults
  // loudly instead of corrupting whatever mmap placed next door.
  stack_size_ = (stack_bytes + page - 1) / page * page;
  alloc_bytes_ = stack_size_ + page;
  void* mem = mmap(nullptr, alloc_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  QHORN_CHECK_MSG(mem != MAP_FAILED, "fiber stack mmap failed");
  alloc_ = static_cast<char*>(mem);
  QHORN_CHECK_MSG(mprotect(alloc_, page, PROT_NONE) == 0,
                  "fiber guard page mprotect failed");
  stack_base_ = alloc_ + page;
#if defined(QHORN_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  QHORN_CHECK_MSG(!started_ || finished_,
                  "destroying a parked fiber would skip live destructors; "
                  "cancel and resume it to unwind first");
#if defined(QHORN_FIBER_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (alloc_ != nullptr) munmap(alloc_, alloc_bytes_);
}

namespace {

#if defined(QHORN_FIBER_ASM_SWITCH)
void Switch(void** save, void* const* load) {
  qhorn_fiber_switch(save, *load);
}
#else
void Switch(ucontext_t* save, const ucontext_t* load) {
  swapcontext(save, load);
}
#endif

}  // namespace

#if defined(QHORN_FIBER_ASM_SWITCH)
void Fiber::Entry(Fiber* self) {
  self->Run();
  // Unreachable: Run() ends in a final switch out and is never re-entered.
}
#else
void Fiber::Trampoline(unsigned hi, unsigned lo) {
  auto ptr = (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo);
  reinterpret_cast<Fiber*>(ptr)->Run();
  // Unreachable: Run() ends in a final switch out and is never re-entered.
}
#endif

void Fiber::Run() {
#if defined(QHORN_FIBER_ASAN)
  // First arrival on this stack: no fake stack to restore (nullptr), but
  // record where we came from — the host stack Yield() must switch back to.
  __sanitizer_finish_switch_fiber(nullptr, &asan_host_bottom_,
                                  &asan_host_size_);
#endif
  body_();
  finished_ = true;
  // Final switch out: the fiber's stack holds no live frames below this
  // one, so its sanitizer fake stack can be released (nullptr save slot).
#if defined(QHORN_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, asan_host_bottom_, asan_host_size_);
#endif
#if defined(QHORN_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  Switch(&fiber_ctx_, &host_ctx_);
  QHORN_CHECK_MSG(false, "finished fiber resumed");
}

size_t Fiber::ResidentBytes() const {
  const auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident(stack_size_ / page);
  QHORN_CHECK_MSG(mincore(stack_base_, stack_size_, resident.data()) == 0,
                  "fiber stack mincore failed");
  size_t pages = 0;
  for (unsigned char r : resident) pages += r & 1u;
  return pages * page;
}

void Fiber::Resume() {
  QHORN_CHECK_MSG(!finished_, "Resume() on a finished fiber");
  if (!started_) {
    started_ = true;
#if defined(QHORN_FIBER_ASM_SWITCH)
    // The frame qhorn_fiber_switch pops on the first switch in: the
    // host's floating-point control state (as getcontext would inherit
    // it), r12 = this and r13 = Entry for the entry stub, rbp = 0 to end
    // frame-pointer walks, and the stub as the return address. The stack
    // top is page-aligned, so the stub's call leaves Entry's frame
    // ABI-aligned.
    uint32_t mxcsr = 0;
    uint16_t fpu_cw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpu_cw));
    auto* frame = reinterpret_cast<uint64_t*>(stack_base_ + stack_size_) - 8;
    frame[0] = mxcsr | (static_cast<uint64_t>(fpu_cw) << 32);
    frame[1] = 0;                                      // r15
    frame[2] = 0;                                      // r14
    frame[3] = reinterpret_cast<uint64_t>(&Entry);     // r13
    frame[4] = reinterpret_cast<uint64_t>(this);       // r12
    frame[5] = 0;                                      // rbx
    frame[6] = 0;                                      // rbp
    frame[7] = reinterpret_cast<uint64_t>(&qhorn_fiber_entry);
    fiber_ctx_ = frame;
#else
    QHORN_CHECK_MSG(getcontext(&fiber_ctx_) == 0, "getcontext failed");
    fiber_ctx_.uc_stack.ss_sp = stack_base_;
    fiber_ctx_.uc_stack.ss_size = stack_size_;
    fiber_ctx_.uc_link = nullptr;
    auto ptr = reinterpret_cast<uintptr_t>(this);
    makecontext(&fiber_ctx_, reinterpret_cast<void (*)()>(&Trampoline), 2,
                static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
#endif
  }
#if defined(QHORN_FIBER_TSAN)
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(QHORN_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&asan_host_fake_, stack_base_, stack_size_);
#endif
  Switch(&host_ctx_, &fiber_ctx_);
  // Back on the host stack — either the fiber yielded or it finished (the
  // finished path already released its fake stack via the nullptr save).
#if defined(QHORN_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_host_fake_, nullptr, nullptr);
#endif
}

void Fiber::Yield() {
  // A parked continuation holds no checked mutex: the held-lock stack is
  // thread-local, and the fiber may be resumed on a *different* OS thread
  // — a lock acquired here would be "held" by a thread that no longer
  // runs this stack and unlocked by one that never locked it.
  LockRankChecker::AssertNoneHeld("a parking fiber");
#if defined(QHORN_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&asan_fiber_fake_, asan_host_bottom_,
                                 asan_host_size_);
#endif
#if defined(QHORN_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  Switch(&fiber_ctx_, &host_ctx_);
  // Resumed — possibly on a different OS thread, whose host-stack bounds
  // the finish call below records for the next Yield().
#if defined(QHORN_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fiber_fake_, &asan_host_bottom_,
                                  &asan_host_size_);
#endif
}

}  // namespace qhorn
