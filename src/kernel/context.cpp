#include "kernel/context.hpp"

#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace minisc::detail {

/// The first code a fresh stack runs.
void start_context(Context& self) {
#if defined(__SANITIZE_ADDRESS__)
  self.finish_switch(nullptr);
#endif
  self.entry_(self.arg_);
  std::abort();  // the entry ends with exit_to() and never returns here
}

#if defined(__x86_64__)

// minisc_context_switch(save_sp, to_sp) pushes the callee-saved registers,
// MXCSR and the x87 control word of the System V ABI onto the calling
// stack, stores the stack pointer in *save_sp, loads to_sp and pops the same
// state from there. minisc_context_start is where a fresh stack's first
// switch returns to: it calls r13(r12), i.e. start_context(self), and marks
// the outermost frame for unwinders.
extern "C" void minisc_context_switch(void** save_sp, void* to_sp);
extern "C" void minisc_context_start();

asm(R"(
  .pushsection .text
  .p2align 4
  .globl minisc_context_switch
  .hidden minisc_context_switch
  .type minisc_context_switch, @function
minisc_context_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size minisc_context_switch, .-minisc_context_switch

  .p2align 4
  .globl minisc_context_start
  .hidden minisc_context_start
  .type minisc_context_start, @function
minisc_context_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  call *%r13
  ud2
  .cfi_endproc
  .size minisc_context_start, .-minisc_context_start
  .popsection
)");

namespace {

/// What minisc_context_switch pops off a fresh stack, lowest address first.
struct EntryFrame {
  std::uint16_t fcw;
  std::uint16_t pad0[3];
  std::uint32_t mxcsr;
  std::uint32_t pad1;
  std::uint64_t r15, r14;
  void (*r13)(Context&);  ///< start_context
  Context* r12;           ///< its argument
  std::uint64_t rbx, rbp;
  void (*ret)();  ///< minisc_context_start
};
static_assert(sizeof(EntryFrame) == 72);

void raw_switch(void** save_sp, void* to_sp) {
  minisc_context_switch(save_sp, to_sp);
}

/// Writes the entry frame at the top of a fresh stack; returns its saved
/// stack pointer.
void* new_stack(std::byte* stack, std::size_t size, Context* self) {
  // The switch's `ret` pops `ret` and leaves rsp at the 16-byte-aligned top,
  // so minisc_context_start's call enters start_context with
  // rsp ≡ 8 (mod 16), as the ABI requires at every function entry.
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack + size) & ~std::uintptr_t{15};
  auto* f = new (reinterpret_cast<void*>(top - sizeof(EntryFrame)))
      EntryFrame{};
  __asm__ volatile("fnstcw %0" : "=m"(f->fcw));
  __asm__ volatile("stmxcsr %0" : "=m"(f->mxcsr));
  f->r13 = &start_context;
  f->r12 = self;
  f->rbp = 0;  // ends the frame-pointer chain
  f->ret = &minisc_context_start;
  return f;
}

}  // namespace

#else  // ucontext on every other target

namespace {

void raw_switch(void** save_sp, void* to_sp) {
  ucontext_t self;
  *save_sp = &self;
  swapcontext(&self, static_cast<ucontext_t*>(to_sp));
}

void ucontext_entry(unsigned hi, unsigned lo) {
  const auto ptr = (static_cast<std::uint64_t>(hi) << 32) |
                   static_cast<std::uint64_t>(lo);
  start_context(*reinterpret_cast<Context*>(static_cast<std::uintptr_t>(ptr)));
}

/// Builds a fresh stack's ucontext_t at its top, with the entry running
/// below it; returns the ucontext_t as the saved stack pointer.
void* new_stack(std::byte* stack, std::size_t size, Context* self) {
  const auto top = reinterpret_cast<std::uintptr_t>(stack + size);
  auto* uc = new (reinterpret_cast<void*>((top - sizeof(ucontext_t)) &
                                          ~(alignof(ucontext_t) - 1)))
      ucontext_t{};
  getcontext(uc);
  uc->uc_stack.ss_sp = stack;
  uc->uc_stack.ss_size =
      static_cast<std::size_t>(reinterpret_cast<std::byte*>(uc) - stack);
  uc->uc_link = nullptr;  // the entry never returns
  const auto ptr =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(self));
  makecontext(uc, reinterpret_cast<void (*)()>(&ucontext_entry), 2,
              static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xffffffffu));
  return uc;
}

}  // namespace

#endif

Context::Context(std::byte* stack, std::size_t size, void (*entry)(void*),
                 void* arg)
    : sp_(new_stack(stack, size, this)), entry_(entry), arg_(arg) {
#if defined(__SANITIZE_ADDRESS__)
  stack_bottom_ = stack;
  stack_size_ = size;
#endif
#if defined(__SANITIZE_THREAD__)
  fiber_ = __tsan_create_fiber(0);
  owns_fiber_ = true;
#endif
}

Context::Context() {
#if defined(__SANITIZE_THREAD__)
  fiber_ = __tsan_get_current_fiber();
#endif
}

Context::~Context() {
#if defined(__SANITIZE_THREAD__)
  if (owns_fiber_) __tsan_destroy_fiber(fiber_);
#endif
}

void Context::switch_to(Context& to) {
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  to.resumer_ = this;
  __sanitizer_start_switch_fiber(&fake_stack, to.stack_bottom_,
                                 to.stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.fiber_, 0);
#endif
  raw_switch(&sp_, to.sp_);
#if defined(__SANITIZE_ADDRESS__)
  finish_switch(fake_stack);
#endif
}

void Context::exit_to(Context& to) {
#if defined(__SANITIZE_ADDRESS__)
  // A null fake-stack slot tells ASan this stack is left for good.
  to.resumer_ = this;
  __sanitizer_start_switch_fiber(nullptr, to.stack_bottom_, to.stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.fiber_, 0);
#endif
  raw_switch(&sp_, to.sp_);
  std::abort();  // a finished stack is never resumed
}

#if defined(__SANITIZE_ADDRESS__)
void Context::finish_switch(void* fake_stack) {
  __sanitizer_finish_switch_fiber(fake_stack, &resumer_->stack_bottom_,
                                  &resumer_->stack_size_);
}
#endif

}  // namespace minisc::detail
