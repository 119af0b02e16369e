#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "core/context.hpp"

namespace scperf {

namespace detail {
/// Tag for internal result construction that must not charge anything
/// (operator results are charged by the operator itself).
struct RawTag {};
}  // namespace detail

template <typename T>
concept Arithmetic = std::is_arithmetic_v<T>;

/// An annotated value: behaves exactly like its underlying type, but every
/// operation applied to it reports its execution cost to the active segment
/// accumulator (§3: "C operators are overloaded ... the library automatically
/// replaces ordinary variable types by a new class").
///
/// In addition to charging costs, each value carries a Stamp recording when
/// (in cycles since segment start) it became available, which yields the HW
/// best-case critical path, and which DFG node produced it, which feeds the
/// behavioural-synthesis substitute.
///
/// Every constructor, assignment, conversion and operator here, the free
/// operators below, Array::operator[] and FuncGuard are always_inline, like
/// the charge helpers they call: a charge is a few instructions, so a call
/// costs more than the work, and forcing only part of the path inline makes
/// GCC stop inlining the operators into the kernels that use them.
template <typename T>
class Annot {
  static_assert(std::is_arithmetic_v<T>, "Annot wraps arithmetic types");

 public:
  using value_type = T;

  [[gnu::always_inline]] Annot() : v_{} {}

  /// Initialisation from a literal: an immediate load (register class).
  [[gnu::always_inline]] Annot(T v) : v_(v) {
    detail::charge_unary(Op::kAssignRes, detail::kNoStamp, stamp_);
  }

  /// Copying another variable (an lvalue) is a genuine data move.
  [[gnu::always_inline]] Annot(const Annot& o) : v_(o.v_) {
    detail::charge_unary(Op::kAssign, o.stamp_, stamp_);
  }
  /// Materialising an operator result is a register write-back: compilers
  /// fold it into the producing instruction, so it carries its own (cheaper)
  /// cost class. The lvalue/rvalue distinction is how the library separates
  /// memory traffic from register traffic at the source level.
  [[gnu::always_inline]] Annot(Annot&& o) : v_(o.v_) {
    detail::charge_unary(Op::kAssignRes, o.stamp_, stamp_);
  }

  /// Internal: construct an operator result without charging.
  [[gnu::always_inline]] Annot(detail::RawTag, T v) : v_(v) {}

  [[gnu::always_inline]] Annot& operator=(const Annot& o) {
    v_ = o.v_;
    detail::charge_unary(Op::kAssign, o.stamp_, stamp_);
    return *this;
  }
  [[gnu::always_inline]] Annot& operator=(Annot&& o) {
    v_ = o.v_;
    detail::charge_unary(Op::kAssignRes, o.stamp_, stamp_);
    return *this;
  }
  [[gnu::always_inline]] Annot& operator=(T v) {
    v_ = v;
    detail::charge_unary(Op::kAssignRes, detail::kNoStamp, stamp_);
    return *this;
  }

  /// Uncharged observation of the underlying value (testbench/reporting use).
  T value() const { return v_; }
  /// Uncharged write (testbench initialisation of pre-segment data).
  void set_raw(T v) {
    v_ = v;
    stamp_ = Stamp{};
  }
  const Stamp& stamp() const { return stamp_; }
  Stamp& stamp() { return stamp_; }

  /// Contextual conversion: using an annotated value as an `if`/`while`/`?:`
  /// condition costs a branch (the paper's t_if).
  [[gnu::always_inline]] explicit operator bool() const {
    detail::charge_effect(Op::kBranch, stamp_);
    return static_cast<bool>(v_);
  }

  [[gnu::always_inline]] Annot operator-() const {
    Annot r(detail::RawTag{}, static_cast<T>(-v_));
    detail::charge_unary(Op::kNeg, stamp_, r.stamp_);
    return r;
  }
  [[gnu::always_inline]] Annot operator~() const
    requires std::is_integral_v<T>
  {
    Annot r(detail::RawTag{}, static_cast<T>(~v_));
    detail::charge_unary(Op::kBitNot, stamp_, r.stamp_);
    return r;
  }
  [[gnu::always_inline]] Annot<bool> operator!() const;

  [[gnu::always_inline]] Annot& operator++() { return *this += T{1}; }
  [[gnu::always_inline]] Annot& operator--() { return *this -= T{1}; }
  [[gnu::always_inline]] Annot operator++(int) {
    Annot old(detail::RawTag{}, v_);
    old.stamp_ = stamp_;
    *this += T{1};
    return old;
  }
  [[gnu::always_inline]] Annot operator--(int) {
    Annot old(detail::RawTag{}, v_);
    old.stamp_ = stamp_;
    *this -= T{1};
    return old;
  }

  // Compound assignments: charged as the operation plus the write-back, which
  // mirrors the paper's accounting where `i = c + d` costs t= + t+.
  [[gnu::always_inline]] Annot& compound(Op op, T rhs_value,
                                         const Stamp& rhs_stamp, T result) {
    Stamp tmp;
    detail::charge_binary(op, stamp_, rhs_stamp, tmp);
    v_ = result;
    detail::charge_unary(Op::kAssignRes, tmp, stamp_);
    (void)rhs_value;
    return *this;
  }

  [[gnu::always_inline]] Annot& operator+=(const Annot& o) {
    return compound(Op::kAdd, o.v_, o.stamp_, static_cast<T>(v_ + o.v_));
  }
  [[gnu::always_inline]] Annot& operator-=(const Annot& o) {
    return compound(Op::kSub, o.v_, o.stamp_, static_cast<T>(v_ - o.v_));
  }
  [[gnu::always_inline]] Annot& operator*=(const Annot& o) {
    return compound(Op::kMul, o.v_, o.stamp_, static_cast<T>(v_ * o.v_));
  }
  [[gnu::always_inline]] Annot& operator/=(const Annot& o) {
    return compound(Op::kDiv, o.v_, o.stamp_, static_cast<T>(v_ / o.v_));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator+=(U u) {
    return compound(Op::kAdd, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ + u));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator-=(U u) {
    return compound(Op::kSub, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ - u));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator*=(U u) {
    return compound(Op::kMul, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ * u));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator/=(U u) {
    return compound(Op::kDiv, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ / u));
  }
  [[gnu::always_inline]] Annot& operator%=(const Annot& o)
    requires std::is_integral_v<T>
  {
    return compound(Op::kMod, o.v_, o.stamp_, static_cast<T>(v_ % o.v_));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator%=(U u)
    requires std::is_integral_v<T>
  {
    return compound(Op::kMod, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ % u));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator<<=(U u)
    requires std::is_integral_v<T>
  {
    return compound(Op::kShl, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ << u));
  }
  template <Arithmetic U>
  [[gnu::always_inline]] Annot& operator>>=(U u)
    requires std::is_integral_v<T>
  {
    return compound(Op::kShr, static_cast<T>(u), detail::kNoStamp,
                    static_cast<T>(v_ >> u));
  }
  [[gnu::always_inline]] Annot& operator&=(const Annot& o)
    requires std::is_integral_v<T>
  {
    return compound(Op::kBitAnd, o.v_, o.stamp_, static_cast<T>(v_ & o.v_));
  }
  [[gnu::always_inline]] Annot& operator|=(const Annot& o)
    requires std::is_integral_v<T>
  {
    return compound(Op::kBitOr, o.v_, o.stamp_, static_cast<T>(v_ | o.v_));
  }
  [[gnu::always_inline]] Annot& operator^=(const Annot& o)
    requires std::is_integral_v<T>
  {
    return compound(Op::kBitXor, o.v_, o.stamp_, static_cast<T>(v_ ^ o.v_));
  }

 private:
  T v_;
  Stamp stamp_;
};

// ---- binary arithmetic / bitwise operators ---------------------------------
// Three overloads per operator (annot⊕annot, annot⊕raw, raw⊕annot); the raw
// operand is a constant and costs nothing by itself, exactly as in the
// paper's example where `i < 0` is charged a single t<.
// A generator macro is the only way to avoid ~50 hand-copied bodies; it is
// #undef'd immediately after use.

#define SCPERF_DEFINE_BINOP(sym, OPC, CONSTRAINT)                         \
  template <typename T>                                                   \
  [[gnu::always_inline]] inline Annot<T> operator sym(const Annot<T>& a,  \
                                                      const Annot<T>& b)  \
    CONSTRAINT                                                            \
  {                                                                       \
    Annot<T> r(detail::RawTag{},                                          \
               static_cast<T>(a.value() sym b.value()));                  \
    detail::charge_binary(OPC, a.stamp(), b.stamp(), r.stamp());          \
    return r;                                                             \
  }                                                                       \
  template <typename T, Arithmetic U>                                     \
  [[gnu::always_inline]] inline Annot<T> operator sym(const Annot<T>& a,  \
                                                      U b) CONSTRAINT     \
  {                                                                       \
    Annot<T> r(detail::RawTag{}, static_cast<T>(a.value() sym b));        \
    detail::charge_unary(OPC, a.stamp(), r.stamp());                      \
    return r;                                                             \
  }                                                                       \
  template <typename T, Arithmetic U>                                     \
  [[gnu::always_inline]] inline Annot<T> operator sym(U a,                \
                                                      const Annot<T>& b)  \
    CONSTRAINT                                                            \
  {                                                                       \
    Annot<T> r(detail::RawTag{}, static_cast<T>(a sym b.value()));        \
    detail::charge_binary(OPC, detail::kNoStamp, b.stamp(), r.stamp());   \
    return r;                                                             \
  }

#define SCPERF_NOCONSTRAINT
#define SCPERF_INTEGRAL requires std::is_integral_v<T>

SCPERF_DEFINE_BINOP(+, Op::kAdd, SCPERF_NOCONSTRAINT)
SCPERF_DEFINE_BINOP(-, Op::kSub, SCPERF_NOCONSTRAINT)
SCPERF_DEFINE_BINOP(*, Op::kMul, SCPERF_NOCONSTRAINT)
SCPERF_DEFINE_BINOP(/, Op::kDiv, SCPERF_NOCONSTRAINT)
SCPERF_DEFINE_BINOP(%, Op::kMod, SCPERF_INTEGRAL)
SCPERF_DEFINE_BINOP(&, Op::kBitAnd, SCPERF_INTEGRAL)
SCPERF_DEFINE_BINOP(|, Op::kBitOr, SCPERF_INTEGRAL)
SCPERF_DEFINE_BINOP(^, Op::kBitXor, SCPERF_INTEGRAL)
SCPERF_DEFINE_BINOP(<<, Op::kShl, SCPERF_INTEGRAL)
SCPERF_DEFINE_BINOP(>>, Op::kShr, SCPERF_INTEGRAL)

#undef SCPERF_DEFINE_BINOP

// ---- comparisons (result: Annot<bool>) --------------------------------------

#define SCPERF_DEFINE_CMPOP(sym, OPC)                                     \
  template <typename T>                                                   \
  [[gnu::always_inline]] inline Annot<bool> operator sym(                 \
      const Annot<T>& a, const Annot<T>& b) {                             \
    Annot<bool> r(detail::RawTag{}, a.value() sym b.value());             \
    detail::charge_binary(OPC, a.stamp(), b.stamp(), r.stamp());          \
    return r;                                                             \
  }                                                                       \
  template <typename T, Arithmetic U>                                     \
  [[gnu::always_inline]] inline Annot<bool> operator sym(                 \
      const Annot<T>& a, U b) {                                           \
    Annot<bool> r(detail::RawTag{}, a.value() sym static_cast<T>(b));     \
    detail::charge_unary(OPC, a.stamp(), r.stamp());                      \
    return r;                                                             \
  }                                                                       \
  template <typename T, Arithmetic U>                                     \
  [[gnu::always_inline]] inline Annot<bool> operator sym(                 \
      U a, const Annot<T>& b) {                                           \
    Annot<bool> r(detail::RawTag{}, static_cast<T>(a) sym b.value());     \
    detail::charge_binary(OPC, detail::kNoStamp, b.stamp(), r.stamp());   \
    return r;                                                             \
  }

SCPERF_DEFINE_CMPOP(==, Op::kEq)
SCPERF_DEFINE_CMPOP(!=, Op::kNe)
SCPERF_DEFINE_CMPOP(<, Op::kLt)
SCPERF_DEFINE_CMPOP(<=, Op::kLe)
SCPERF_DEFINE_CMPOP(>, Op::kGt)
SCPERF_DEFINE_CMPOP(>=, Op::kGe)

#undef SCPERF_DEFINE_CMPOP
#undef SCPERF_NOCONSTRAINT
#undef SCPERF_INTEGRAL

template <typename T>
[[gnu::always_inline]] inline Annot<bool> Annot<T>::operator!() const {
  Annot<bool> r(detail::RawTag{}, !v_);
  detail::charge_unary(Op::kLogicalNot, stamp_, r.stamp());
  return r;
}

/// Annotated fixed-capacity array. Element access through operator[] charges
/// the paper's t[] (address computation + memory access); the elements are
/// annotated values themselves, so reads and writes of them are charged by
/// Annot's own operators.
template <typename T>
class Array {
 public:
  explicit Array(std::size_t n) : data_(n) {}
  Array(std::initializer_list<T> init) {
    data_.reserve(init.size());
    for (T v : init) data_.push_back(Annot<T>(detail::RawTag{}, v));
  }

  [[gnu::always_inline]] Annot<T>& operator[](std::size_t i) {
    assert(i < data_.size());
    detail::charge_effect(Op::kIndex, detail::kNoStamp);
    return data_[i];
  }
  [[gnu::always_inline]] const Annot<T>& operator[](std::size_t i) const {
    assert(i < data_.size());
    detail::charge_effect(Op::kIndex, detail::kNoStamp);
    return data_[i];
  }
  template <typename I>
  [[gnu::always_inline]] Annot<T>& operator[](const Annot<I>& i) {
    assert(static_cast<std::size_t>(i.value()) < data_.size());
    detail::charge_effect(Op::kIndex, i.stamp());
    return data_[static_cast<std::size_t>(i.value())];
  }
  template <typename I>
  [[gnu::always_inline]] const Annot<T>& operator[](const Annot<I>& i) const {
    assert(static_cast<std::size_t>(i.value()) < data_.size());
    detail::charge_effect(Op::kIndex, i.stamp());
    return data_[static_cast<std::size_t>(i.value())];
  }

  /// Uncharged access for testbench initialisation and result checking.
  Annot<T>& at_raw(std::size_t i) { return data_[i]; }
  const Annot<T>& at_raw(std::size_t i) const { return data_[i]; }

  std::size_t size() const { return data_.size(); }

 private:
  std::vector<Annot<T>> data_;
};

/// RAII guard charging the paper's function-call cost t_fc on entry and the
/// return cost on exit. Place one at the top of any annotated function:
///
///     gint func(gint x) {
///       FuncGuard fg;
///       ...
///     }
class FuncGuard {
 public:
  [[gnu::always_inline]] FuncGuard() {
    detail::charge_effect(Op::kCall, detail::kNoStamp);
  }
  [[gnu::always_inline]] ~FuncGuard() {
    detail::charge_effect(Op::kReturn, detail::kNoStamp);
  }
  FuncGuard(const FuncGuard&) = delete;
  FuncGuard& operator=(const FuncGuard&) = delete;
};

// The generic names user code (and the type-redefinition header) uses.
using gint = Annot<int>;
using glong = Annot<long>;
using guint = Annot<unsigned>;
using gbool = Annot<bool>;
using gfloat = Annot<float>;
using gdouble = Annot<double>;
template <typename T>
using garray = Array<T>;

}  // namespace scperf
