#include "workloads/vocoder/kernels.hpp"

#include "workloads/data.hpp"

// One text per kernel (see data.hpp), in deliberately "flat" integer style —
// while loops, explicit temporaries, explicit clips — that the assembly form
// mirrors statement for statement. annot:: instantiates each on gint /
// garray<int>; ref:: on std::int32_t / Words over the caller's buffers.

namespace workloads::vocoder {
namespace {

/// The plain form's array type: a caller's buffer of int32 words, indexed
/// like a garray<int>. Kernels take their inputs as `const A&`, through
/// which a Words only reads, so an input buffer may be wrapped as one.
class Words {
 public:
  explicit Words(std::int32_t* p) : p_(p) {}
  explicit Words(const std::int32_t* p) : p_(const_cast<std::int32_t*>(p)) {}
  std::int32_t& operator[](int i) { return p_[i]; }
  const std::int32_t& operator[](int i) const { return p_[i]; }

 private:
  std::int32_t* p_;
};

/// The weighting impulse response in the kernel's form: kImpulse itself, or
/// an annotated ROM whose indexing charges t[] like any other array access.
template <class A>
const auto& impulse() {
  if constexpr (std::is_same_v<A, Words>) {
    return kImpulse;
  } else {
    static const A* rom = new A(load(kImpulse));
    return *rom;
  }
}

template <class V, class A>
void lsp_estimation(const A& frame, A& lpc) {
  auto r = scratch<A, kOrder + 1>();
  V k = 0;
  while (k <= kOrder) {
    V acc = 0;
    V n = k;
    while (n < kFrame) {
      acc = acc + (((frame[n] >> 2) * (frame[n - k] >> 2)) >> 6);
      n = n + 1;
    }
    r[k] = acc;
    k = k + 1;
  }
  while (r[0] >= 32768) {
    V i = 0;
    while (i <= kOrder) {
      r[i] = r[i] >> 1;
      i = i + 1;
    }
  }
  if (r[0] < 1) r[0] = 1;

  auto a = scratch<A, kOrder + 1>();
  auto tmp = scratch<A, kOrder + 1>();
  a[0] = 4096;
  V i = 1;
  while (i <= kOrder) {
    a[i] = 0;
    i = i + 1;
  }
  V err = r[0];
  i = 1;
  while (i <= kOrder) {
    V acc = r[i];
    V j = 1;
    while (j < i) {
      acc = acc - ((a[j] * r[i - j]) >> 12);
      j = j + 1;
    }
    if (acc > 32767) acc = 32767;
    if (acc < -32767) acc = -32767;
    V ki = 0 - ((acc << 12) / err);
    if (ki > 4095) ki = 4095;
    if (ki < -4095) ki = -4095;
    j = 1;
    while (j < i) {
      V v = a[j] + ((ki * a[i - j]) >> 12);
      if (v > 32767) v = 32767;
      if (v < -32767) v = -32767;
      tmp[j] = v;
      j = j + 1;
    }
    j = 1;
    while (j < i) {
      a[j] = tmp[j];
      j = j + 1;
    }
    a[i] = ki;
    V k2 = (ki * ki) >> 12;
    err = err - ((k2 * err) >> 12);
    if (err < 1) err = 1;
    i = i + 1;
  }
  i = 0;
  while (i < kOrder) {
    lpc[i] = a[i + 1];
    i = i + 1;
  }
}

template <class V, class A>
void lpc_interpolation(const A& prev, const A& cur, A& subc) {
  V s = 0;
  while (s < kSubframes) {
    V i = 0;
    while (i < kOrder) {
      subc[s * kOrder + i] = ((3 - s) * prev[i] + (s + 1) * cur[i]) >> 2;
      i = i + 1;
    }
    s = s + 1;
  }
}

template <class V, class A>
V acb_search(const A& frame, int sub_off, const A& hist, V& best_lag) {
  V blag = kMinLag;
  V bcorr = -1;
  V ben = 1;
  V lag = kMinLag;
  while (lag <= kMaxLag) {
    V corr = 0;
    V en = 1;
    V n = 0;
    while (n < kSub) {
      V h = hist[kHist - lag + n];
      corr = corr + ((frame[sub_off + n] * h) >> 6);
      en = en + ((h * h) >> 6);
      n = n + 1;
    }
    if (corr > bcorr) {
      bcorr = corr;
      ben = en;
      blag = lag;
    }
    lag = lag + 1;
  }
  if (bcorr < 0) bcorr = 0;
  V gain = (bcorr << 8) / ben;
  if (gain > 8191) gain = 8191;
  best_lag = blag;
  return gain;
}

template <class V, class A>
void update_history(A& hist, const A& frame, int sub_off) {
  V i = 0;
  while (i < kHist - kSub) {
    hist[i] = hist[i + kSub];
    i = i + 1;
  }
  i = 0;
  while (i < kSub) {
    hist[kHist - kSub + i] = frame[sub_off + i];
    i = i + 1;
  }
}

template <class V, class A>
V icb_search(const A& frame, int sub_off, A& pulses, int pulse_off) {
  V total = 0;
  V t = 0;
  while (t < kTracks) {
    V best_enc = t << 1;
    V best_score = -1;
    V p = t;
    while (p < kSub) {
      V acc = 0;
      V end = p + kImpLen;
      if (end > kSub) end = kSub;
      V n = p;
      while (n < end) {
        acc = acc + ((frame[sub_off + n] * impulse<A>()[n - p]) >> 6);
        n = n + 1;
      }
      V score = acc;
      if (score < 0) score = 0 - score;
      if (score > best_score) {
        best_score = score;
        best_enc = p << 1;
        if (acc < 0) best_enc = best_enc | 1;
      }
      p = p + kTracks;
    }
    pulses[pulse_off + t] = best_enc;
    total = total + best_score;
    t = t + 1;
  }
  return total;
}

template <class V, class A>
void build_excitation(const A& frame, int sub_off, const V& gain,
                      const A& pulses, int pulse_off, A& exc) {
  V n = 0;
  while (n < kSub) {
    exc[n] = (gain * frame[sub_off + n]) >> 12;
    n = n + 1;
  }
  V t = 0;
  while (t < kTracks) {
    V enc = pulses[pulse_off + t];
    V pos = enc >> 1;
    if ((enc & 1) != 0) {
      exc[pos] = exc[pos] - 512;
    } else {
      exc[pos] = exc[pos] + 512;
    }
    t = t + 1;
  }
}

template <class V, class A>
V postproc(const A& subc, int subc_off, const A& exc, A& mem, A& out) {
  V checksum = 0;
  V n = 0;
  while (n < kSub) {
    V acc = exc[n] << 12;
    V i = 0;
    while (i < kOrder) {
      acc = acc - subc[subc_off + i] * mem[i];
      i = i + 1;
    }
    V y = acc >> 12;
    if (y > 4095) y = 4095;
    if (y < -4096) y = -4096;
    V j = kOrder - 1;
    while (j > 0) {
      mem[j] = mem[j - 1];
      j = j - 1;
    }
    mem[0] = y;
    out[n] = y;
    checksum = checksum + y;
    n = n + 1;
  }
  return checksum;
}

}  // namespace

namespace annot {

void lsp_estimation(const garray<int>& frame, garray<int>& lpc) {
  vocoder::lsp_estimation<gint>(frame, lpc);
}

void lpc_interpolation(const garray<int>& prev, const garray<int>& cur,
                       garray<int>& subc) {
  vocoder::lpc_interpolation<gint>(prev, cur, subc);
}

gint acb_search(const garray<int>& frame, int sub_off, const garray<int>& hist,
                gint& best_lag) {
  return vocoder::acb_search<gint>(frame, sub_off, hist, best_lag);
}

void update_history(garray<int>& hist, const garray<int>& frame, int sub_off) {
  vocoder::update_history<gint>(hist, frame, sub_off);
}

gint icb_search(const garray<int>& frame, int sub_off, garray<int>& pulses,
                int pulse_off) {
  return vocoder::icb_search<gint>(frame, sub_off, pulses, pulse_off);
}

void build_excitation(const garray<int>& frame, int sub_off, gint gain,
                      const garray<int>& pulses, int pulse_off,
                      garray<int>& exc) {
  vocoder::build_excitation<gint>(frame, sub_off, gain, pulses, pulse_off,
                                  exc);
}

gint postproc(const garray<int>& subc, int subc_off, const garray<int>& exc,
              garray<int>& mem, garray<int>& out) {
  return vocoder::postproc<gint>(subc, subc_off, exc, mem, out);
}

}  // namespace annot

namespace ref {

void lsp_estimation(const std::int32_t* frame, std::int32_t* lpc) {
  Words out(lpc);
  vocoder::lsp_estimation<std::int32_t>(Words(frame), out);
}

void lpc_interpolation(const std::int32_t* prev, const std::int32_t* cur,
                       std::int32_t* subc) {
  Words out(subc);
  vocoder::lpc_interpolation<std::int32_t>(Words(prev), Words(cur), out);
}

std::int32_t acb_search(const std::int32_t* sub, const std::int32_t* hist,
                        std::int32_t* best_lag) {
  return vocoder::acb_search<std::int32_t>(Words(sub), 0, Words(hist),
                                           *best_lag);
}

void update_history(std::int32_t* hist, const std::int32_t* sub) {
  Words h(hist);
  vocoder::update_history<std::int32_t>(h, Words(sub), 0);
}

std::int32_t icb_search(const std::int32_t* sub, std::int32_t* pulses) {
  Words out(pulses);
  return vocoder::icb_search<std::int32_t>(Words(sub), 0, out, 0);
}

void build_excitation(const std::int32_t* sub, std::int32_t gain,
                      const std::int32_t* pulses, std::int32_t* exc) {
  Words out(exc);
  vocoder::build_excitation<std::int32_t>(Words(sub), 0, gain, Words(pulses),
                                          0, out);
}

std::int32_t postproc(const std::int32_t* subc, const std::int32_t* exc,
                      std::int32_t* mem, std::int32_t* out) {
  Words m(mem), o(out);
  return vocoder::postproc<std::int32_t>(Words(subc), 0, Words(exc), m, o);
}

}  // namespace ref

}  // namespace workloads::vocoder
