#pragma once

#include <cstdint>

#include "core/annot.hpp"

/// The five computational kernels of the vocoder case study (Table 3 of the
/// paper: LSP estimation, LPC interpolation, adaptive-codebook search,
/// innovative-codebook search, post-processing).
///
/// SUBSTITUTION NOTE (see DESIGN.md §2): the paper uses the ETSI EN 301 704
/// GSM vocoder. These kernels reproduce its computational *shape* — fixed-
/// point autocorrelation + Levinson-Durbin, coefficient interpolation,
/// correlation-maximising pitch search, pulse-position codebook search and a
/// 10th-order synthesis filter — without being bit-exact to the standard
/// (bit-exactness is irrelevant to timing-estimation accuracy; the "LSP"
/// stage stops at the LPC coefficients rather than converting to line
/// spectral pairs).
///
/// Every kernel exists in three forms operating on identical data and
/// producing identical results: plain C++ (ref::), annotated (annot::) and
/// orsim assembly (kernels_asm.hpp). The first two are one text, a function
/// template in kernels.cpp instantiated on plain and on annotated types. All
/// arithmetic is 32-bit integer Q12 fixed point with explicit clipping so
/// the forms agree bit-for-bit.
namespace workloads::vocoder {

inline constexpr int kFrame = 160;   ///< samples per frame
inline constexpr int kSub = 40;      ///< samples per subframe
inline constexpr int kSubframes = 4;
inline constexpr int kOrder = 10;    ///< LPC order
inline constexpr int kHist = 200;    ///< adaptive-codebook history length
// Lags start at one subframe so the history window hist[kHist-lag .. +kSub)
// stays inside the buffer (lag >= kSub and kHist - kMinLag + kSub <= kHist).
inline constexpr int kMinLag = 40;
inline constexpr int kMaxLag = 105;
inline constexpr int kTracks = 4;    ///< innovative-codebook tracks
inline constexpr int kImpLen = 8;    ///< weighting impulse response length

/// The fixed weighting impulse response used by the innovative-codebook
/// search (all forms share these constants).
inline constexpr std::int32_t kImpulse[kImpLen] = {64, 48, 32, 24,
                                                   16, 8,  4,  2};

namespace ref {

/// Autocorrelation (kOrder+1 lags) + Levinson-Durbin -> lpc[kOrder] (Q12).
void lsp_estimation(const std::int32_t* frame, std::int32_t* lpc);

/// Interpolates previous/current LPC sets across the 4 subframes:
/// subc[s*kOrder + i] = ((3-s)*prev[i] + (s+1)*cur[i]) >> 2.
void lpc_interpolation(const std::int32_t* prev, const std::int32_t* cur,
                       std::int32_t* subc);

/// Correlation-maximising pitch search over lags [kMinLag, kMaxLag] against
/// the excitation history; returns the Q12 gain and writes the best lag.
std::int32_t acb_search(const std::int32_t* sub, const std::int32_t* hist,
                        std::int32_t* best_lag);

/// Shifts the history left by one subframe and appends `sub`.
void update_history(std::int32_t* hist, const std::int32_t* sub);

/// Pulse-position search: per track, the position (stride kTracks) whose
/// correlation with the weighting impulse response has the largest
/// magnitude. pulses[t] = (pos << 1) | sign. Returns the summed metric.
std::int32_t icb_search(const std::int32_t* sub, std::int32_t* pulses);

/// exc[n] = (gain * sub[n]) >> 12, plus +/-512 at the 4 pulse positions.
void build_excitation(const std::int32_t* sub, std::int32_t gain,
                      const std::int32_t* pulses, std::int32_t* exc);

/// 10th-order IIR synthesis filter with clipping; updates `mem`, writes
/// `out`, returns the subframe checksum (sum of output samples).
std::int32_t postproc(const std::int32_t* subc, const std::int32_t* exc,
                      std::int32_t* mem, std::int32_t* out);

}  // namespace ref

namespace annot {

using scperf::garray;
using scperf::gint;

// The same kernels over annotated types; `sub_off` selects the subframe
// within a frame-sized array. Bit-identical results to ref::, which runs
// these with every offset 0 on the buffers it is given.
void lsp_estimation(const garray<int>& frame, garray<int>& lpc);
void lpc_interpolation(const garray<int>& prev, const garray<int>& cur,
                       garray<int>& subc);
gint acb_search(const garray<int>& frame, int sub_off,
                const garray<int>& hist, gint& best_lag);
void update_history(garray<int>& hist, const garray<int>& frame, int sub_off);
gint icb_search(const garray<int>& frame, int sub_off, garray<int>& pulses,
                int pulse_off);
void build_excitation(const garray<int>& frame, int sub_off, gint gain,
                      const garray<int>& pulses, int pulse_off,
                      garray<int>& exc);
gint postproc(const garray<int>& subc, int subc_off, const garray<int>& exc,
              garray<int>& mem, garray<int>& out);

}  // namespace annot

}  // namespace workloads::vocoder
