#pragma once

#include <cstddef>

namespace minisc::detail {

/// A stack that one switch suspends and a later switch resumes: the
/// execution context of a minisc process, or of the scheduler that runs it.
///
/// While suspended, a context is a saved stack pointer. On x86-64 the switch
/// saves the callee-saved registers, MXCSR and the x87 control word on the
/// outgoing stack and swaps stack pointers (the QuickThreads design of the
/// reference SystemC kernel), without a syscall. Other targets switch with
/// ucontext. Under AddressSanitizer and ThreadSanitizer every switch carries
/// the sanitizer's fiber annotations.
class Context {
 public:
  /// The calling thread's own stack. Its state is saved by the first
  /// switch away from it.
  Context();
  /// A fresh stack [stack, stack + size): the first switch to it calls
  /// entry(arg) there, with the floating-point control state of the thread
  /// that built it. `entry` must not return; it ends with exit_to().
  Context(std::byte* stack, std::size_t size, void (*entry)(void*),
          void* arg);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Suspends the calling stack into *this and resumes `to`. Returns when a
  /// later switch resumes *this.
  void switch_to(Context& to);
  /// The last switch away from this stack: it is never resumed again.
  [[noreturn]] void exit_to(Context& to);

 private:
  friend void start_context(Context& self);

  void* sp_ = nullptr;  ///< saved stack pointer while suspended
  void (*entry_)(void*) = nullptr;
  void* arg_ = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  /// Called after every switch lands here: tells ASan the stack it left and
  /// records that stack's bounds on the context that switched here.
  void finish_switch(void* fake_stack);

  const void* stack_bottom_ = nullptr;  ///< learned for the thread's stack
  std::size_t stack_size_ = 0;
  Context* resumer_ = nullptr;  ///< the context whose switch landed here
#endif
#if defined(__SANITIZE_THREAD__)
  void* fiber_ = nullptr;
  bool owns_fiber_ = false;  ///< created for a fresh stack, not the thread's
#endif
};

}  // namespace minisc::detail
