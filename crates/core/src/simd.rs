//! Explicitly vectorized station scans — the [`SimdScan`] backend.
//!
//! [`super::engine::SinrEvaluator`] already stores the network in
//! structure-of-arrays layout (`xs` / `ys` / `powers`), so the per-point
//! scan is three linear streams begging to be processed several stations
//! per instruction. This module does exactly that:
//!
//! * **AVX-512F** (x86-64, detected at *runtime*): 8 × `f64` lanes —
//!   distance, attenuation, compensated accumulation and the argmax
//!   bookkeeping all stay in vector registers, with the comparisons in
//!   dedicated mask registers; one `vdivpd` per eight stations on the
//!   paper's `α = 2` fast path.
//! * **AVX2** (x86-64, detected at *runtime*): the same kernel at
//!   4 × `f64` lanes for machines without AVX-512.
//! * **SSE2** (x86-64 baseline, always available): the same kernel at
//!   2 × `f64` lanes.
//! * **Portable** (any architecture, and every `α ≠ 2` network): a
//!   4-lane *blocked* scalar kernel — plain Rust the optimizer is free
//!   to autovectorize, with identical lane semantics to the intrinsic
//!   paths. General-`α` attenuation needs `powf`, which has no vector
//!   form, so non-quadratic path loss always takes this kernel (the
//!   distance arithmetic and accumulation are still lane-blocked).
//!
//! ## Numerical contract
//!
//! The scalar kernels keep one Kahan–Babuška (Neumaier) accumulator; the
//! vector kernels keep one **per lane** — the same compensation step,
//! applied lane-wise — then merge the per-lane sums and compensation
//! terms through a scalar [`KahanSum`] and finish any remainder stations
//! (`n mod lanes`) serially on that same accumulator. Compensation is
//! therefore never dropped, but the summation *order* differs from the
//! scalar scan, so totals may differ by ordinary rounding. All
//! engine-equivalence guarantees are unchanged: answers match the ground
//! truth everywhere except within numeric tolerance of a `SINR = β`
//! decision boundary, exactly like [`super::engine::ExactScan`].
//!
//! The argmax tie rule is preserved exactly: each lane keeps the *first*
//! strictly-greater energy, and the lane merge breaks equal energies
//! toward the smallest station index — together that is the scalar
//! "first index wins" rule. Coincident points (`d² = 0`) are detected in
//! the vector loop with an exact compare and resolved to the smallest
//! station index, matching the scalar `Err(j)` path.
//!
//! ## Feature detection
//!
//! The instruction set is resolved **once, at construction**
//! ([`SimdScan::new`]) via `std::arch::is_x86_feature_detected!`, never
//! per query. The chosen kernel is observable through
//! [`SimdScan::kernel`] (and is emitted by the `engine_batch` bench JSON
//! lines), and [`SimdScan::with_kernel`] pins a specific kernel for
//! differential testing. Binaries need no special `RUSTFLAGS`: the
//! AVX-512 and AVX2 paths are compiled behind `#[target_feature]` and
//! only ever entered after the runtime check.
//!
//! This module is one of the two audited `unsafe` corners of the
//! workspace (`std::arch` intrinsics and the raw loads they require);
//! the other is the disjoint-slot output writer of the work-stealing
//! scheduler in [`crate::engine`]. The crate root keeps
//! `deny(unsafe_code)` everywhere else.
//!
//! ## Example
//!
//! ```
//! use sinr_core::engine::{Located, QueryEngine};
//! use sinr_core::simd::SimdScan;
//! use sinr_core::{Network, StationId};
//! use sinr_geometry::Point;
//!
//! let net = Network::uniform(
//!     vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
//!     0.0,
//!     2.0,
//! ).unwrap();
//! let engine = SimdScan::new(&net);
//! let queries = [Point::new(0.5, 0.0), Point::new(3.0, 0.0)];
//! let mut answers = [Located::Silent; 2];
//! engine.locate_batch(&queries, &mut answers);
//! assert_eq!(answers[0], Located::Reception(StationId(0)));
//! assert_eq!(answers[1], Located::Silent);
//! ```
#![allow(unsafe_code)]

use crate::engine::{
    batch_map, GeneralAlpha, InverseSquare, LocateError, Located, PathLoss, QueryEngine, Scan,
    SinrEvaluator, SyncError,
};
use crate::network::{Network, NetworkDelta};
use crate::station::StationId;
use sinr_algebra::KahanSum;
use sinr_geometry::Point;

/// The instruction set a [`SimdScan`] resolved to at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdKernel {
    /// 8 × `f64` AVX-512F lanes (x86-64, detected at runtime; the
    /// intrinsics are stable since Rust 1.89).
    Avx512,
    /// 4 × `f64` AVX2 lanes (x86-64, detected at runtime).
    Avx2,
    /// 2 × `f64` SSE2 lanes (part of the x86-64 baseline).
    Sse2,
    /// The portable 4-lane blocked scalar kernel (every architecture).
    Portable,
}

impl SimdKernel {
    /// Every kernel, widest first — the order `detect` prefers and the
    /// order differential tests iterate.
    pub const ALL: [SimdKernel; 4] = [
        SimdKernel::Avx512,
        SimdKernel::Avx2,
        SimdKernel::Sse2,
        SimdKernel::Portable,
    ];

    /// Number of `f64` lanes the kernel processes per step.
    pub fn lanes(self) -> usize {
        match self {
            SimdKernel::Avx512 => 8,
            SimdKernel::Avx2 => 4,
            SimdKernel::Sse2 => 2,
            SimdKernel::Portable => PORTABLE_LANES,
        }
    }

    /// Short stable name (used in bench JSON lines).
    pub fn name(self) -> &'static str {
        match self {
            SimdKernel::Avx512 => "avx512",
            SimdKernel::Avx2 => "avx2",
            SimdKernel::Sse2 => "sse2",
            SimdKernel::Portable => "portable",
        }
    }

    /// True when this kernel can run on the current machine.
    pub fn is_supported(self) -> bool {
        match self {
            SimdKernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdKernel::Sse2 | SimdKernel::Avx2 | SimdKernel::Avx512 => false,
        }
    }

    /// The widest kernel the current machine supports.
    pub fn detect() -> SimdKernel {
        #[cfg(target_arch = "x86_64")]
        {
            if SimdKernel::Avx512.is_supported() {
                SimdKernel::Avx512
            } else if SimdKernel::Avx2.is_supported() {
                SimdKernel::Avx2
            } else {
                SimdKernel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdKernel::Portable
        }
    }
}

/// Lane width of the portable blocked kernel.
const PORTABLE_LANES: usize = 4;

/// Per-lane accumulator state after the vectorized prefix of a scan.
///
/// `processed` is the prefix length (a multiple of `L`); indices
/// `processed..n` still need the scalar tail of [`finish`].
struct LaneState<const L: usize> {
    sum: [f64; L],
    comp: [f64; L],
    best_energy: [f64; L],
    best_index: [usize; L],
    processed: usize,
}

impl<const L: usize> LaneState<L> {
    fn fresh() -> Self {
        LaneState {
            sum: [0.0; L],
            comp: [0.0; L],
            best_energy: [f64::NEG_INFINITY; L],
            best_index: [0; L],
            processed: 0,
        }
    }
}

/// Merges the per-lane accumulators and finishes the `n mod L` tail
/// serially, producing the same [`Scan`] the scalar kernels feed to
/// [`SinrEvaluator::decide`]. Returns `Err(j)` if a tail station
/// coincides with `p`. Operates on raw SoA columns so the tiled batch
/// executor ([`crate::tile`]) can run it over gathered candidate
/// columns as well as whole-network ones.
fn finish<K: PathLoss, const L: usize>(
    xs: &[f64],
    ys: &[f64],
    powers: &[f64],
    k: K,
    p: Point,
    lanes: LaneState<L>,
) -> Result<Scan, usize> {
    // Lane merge: per-lane sums and their compensation terms feed one
    // scalar Kahan accumulator (value = sum + comp, so adding both terms
    // loses nothing); equal best energies break toward the smaller
    // station index, which restores the scalar first-index tie rule.
    let mut acc = KahanSum::new();
    let mut best = 0usize;
    let mut best_energy = f64::NEG_INFINITY;
    if lanes.processed > 0 {
        for l in 0..L {
            acc.add(lanes.sum[l]);
            acc.add(lanes.comp[l]);
            let (e, i) = (lanes.best_energy[l], lanes.best_index[l]);
            if e > best_energy || (e == best_energy && i < best) {
                best_energy = e;
                best = i;
            }
        }
    }
    for j in lanes.processed..xs.len() {
        let dx = xs[j] - p.x;
        let dy = ys[j] - p.y;
        let d2 = dx * dx + dy * dy;
        if d2 == 0.0 {
            return Err(j);
        }
        let e = k.attenuation(d2) * powers[j];
        acc.add(e);
        // Tail indices all exceed the vectorized prefix's, so strict
        // comparison keeps the earlier station on ties.
        if e > best_energy {
            best_energy = e;
            best = j;
        }
    }
    Ok(Scan {
        total: acc.value(),
        best,
        best_energy,
    })
}

/// Merges the per-lane *sums* (no argmax) and finishes the `n mod L`
/// tail serially, then derives the candidate station's energy directly —
/// the [`candidate_scan`] counterpart of [`finish`]. Returns
/// `(e_candidate, total)`, or `Err(j)` if a tail station coincides with
/// `p`.
fn finish_sum<K: PathLoss, const L: usize>(
    eval: &SinrEvaluator,
    k: K,
    cand: usize,
    p: Point,
    lanes: LaneState<L>,
) -> Result<(f64, f64), usize> {
    let (xs, ys, powers) = eval.soa();
    let mut acc = KahanSum::new();
    if lanes.processed > 0 {
        for l in 0..L {
            acc.add(lanes.sum[l]);
            acc.add(lanes.comp[l]);
        }
    }
    for j in lanes.processed..xs.len() {
        let dx = xs[j] - p.x;
        let dy = ys[j] - p.y;
        let d2 = dx * dx + dy * dy;
        if d2 == 0.0 {
            return Err(j);
        }
        acc.add(k.attenuation(d2) * powers[j]);
    }
    // Recompute the candidate's energy with the exact operation sequence
    // of the scan kernels (`RN(RN(attenuation)·ψ)`), so the value is
    // bit-identical to what a full scan would have recorded for it.
    let dx = xs[cand] - p.x;
    let dy = ys[cand] - p.y;
    let d2 = dx * dx + dy * dy;
    // (A NaN query point makes `d2` NaN, which is not a coincidence.)
    debug_assert!(
        d2 != 0.0,
        "coincident candidate must have been caught above"
    );
    Ok((k.attenuation(d2) * powers[cand], acc.value()))
}

/// The portable blocked kernel: `L` independent scalar lanes advanced in
/// lock-step, each with its own Neumaier compensation — semantically the
/// intrinsic kernels with the vector ISA erased. Also the only kernel
/// for general `α` (lane-wise `powf`). With `TRACK_BEST = false` the
/// argmax bookkeeping is compiled out (the [`candidate_scan`] path,
/// where the kd-tree has already named the only candidate).
fn blocked_lanes<K: PathLoss, const L: usize, const TRACK_BEST: bool>(
    xs: &[f64],
    ys: &[f64],
    powers: &[f64],
    k: K,
    p: Point,
) -> Result<LaneState<L>, usize> {
    let n = xs.len();
    let prefix = n - n % L;
    let mut lanes = LaneState::<L>::fresh();
    let mut j = 0;
    while j < prefix {
        for l in 0..L {
            let i = j + l;
            let dx = xs[i] - p.x;
            let dy = ys[i] - p.y;
            let d2 = dx * dx + dy * dy;
            if d2 == 0.0 {
                // Lanes are visited in index order, so this is the first
                // coincident station of the whole scan.
                return Err(i);
            }
            let e = k.attenuation(d2) * powers[i];
            // Neumaier step, branch-for-branch the scalar `KahanSum::add`.
            let t = lanes.sum[l] + e;
            lanes.comp[l] += if lanes.sum[l].abs() >= e.abs() {
                (lanes.sum[l] - t) + e
            } else {
                (e - t) + lanes.sum[l]
            };
            lanes.sum[l] = t;
            if TRACK_BEST && e > lanes.best_energy[l] {
                lanes.best_energy[l] = e;
                lanes.best_index[l] = i;
            }
        }
        j += L;
    }
    lanes.processed = prefix;
    Ok(lanes)
}

/// The full portable scan: blocked lanes, then the shared merge.
fn scan_blocked<K: PathLoss, const L: usize>(
    xs: &[f64],
    ys: &[f64],
    powers: &[f64],
    k: K,
    p: Point,
) -> Result<Scan, usize> {
    let lanes = blocked_lanes::<K, L, true>(xs, ys, powers, k, p)?;
    finish(xs, ys, powers, k, p, lanes)
}

/// One full argmax scan of arbitrary SoA columns on the named kernel —
/// the entry point shared by [`SimdScan`] (whole-network columns) and
/// the tiled batch executor of [`crate::tile`] (gathered candidate
/// columns). Per-station energies are computed with the exact same
/// operation sequence on every kernel (`RN(RN(attenuation)·ψ)`), so the
/// reported `best_energy` is bit-identical across kernels and to the
/// scalar ground truth; only the `total`'s summation *order* (and hence
/// ordinary rounding) differs. Returns `Err(j)` when station `j`
/// coincides with `p` (smallest such index).
///
/// `kernel` must be supported on the current machine (pinned at engine
/// construction); `α ≠ 2` always takes the portable blocked kernel
/// (`powf` has no vector form).
pub(crate) fn scan_slices(
    kernel: SimdKernel,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    powers: &[f64],
    p: Point,
) -> Result<Scan, usize> {
    if alpha == 2.0 {
        let k = InverseSquare;
        #[cfg(target_arch = "x86_64")]
        match kernel {
            SimdKernel::Avx512 => {
                // SAFETY: support was verified at kernel selection time
                // (`detect`/`with_kernel`/`is_supported`).
                let lanes = unsafe { x86::scan_avx512::<true>(xs, ys, powers, p) }?;
                return finish(xs, ys, powers, k, p, lanes);
            }
            SimdKernel::Avx2 => {
                // SAFETY: as above.
                let lanes = unsafe { x86::scan_avx2::<true>(xs, ys, powers, p) }?;
                return finish(xs, ys, powers, k, p, lanes);
            }
            SimdKernel::Sse2 => {
                let lanes = x86::scan_sse2::<true>(xs, ys, powers, p)?;
                return finish(xs, ys, powers, k, p, lanes);
            }
            SimdKernel::Portable => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        scan_blocked::<_, PORTABLE_LANES>(xs, ys, powers, k, p)
    } else {
        scan_blocked::<_, PORTABLE_LANES>(xs, ys, powers, GeneralAlpha::new(alpha), p)
    }
}

/// The x86-64 intrinsic kernels (α = 2 only: attenuation is one divide).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LaneState;
    use sinr_geometry::Point;
    use std::arch::x86_64::*;

    /// 8-lane AVX-512F scan over the multiple-of-8 prefix.
    ///
    /// The same kernel as [`scan_avx2`] at twice the width, with the
    /// comparisons living in `__mmask8` registers instead of blend
    /// vectors. Returns `Err(j)` when station `j` coincides with `p`
    /// (smallest such index — the lowest set mask bit is the lowest
    /// lane). With `TRACK_BEST = false` the argmax blends are compiled
    /// out. Deliberately FMA-free, like the narrower kernels: every
    /// energy must round exactly as `RN(RN(dx²)+RN(dy²))` then
    /// `RN(RN(1/d²)·ψ)` so prefix, tail and ground truth agree
    /// bit-for-bit per station.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn scan_avx512<const TRACK_BEST: bool>(
        xs: &[f64],
        ys: &[f64],
        powers: &[f64],
        p: Point,
    ) -> Result<LaneState<8>, usize> {
        let n = xs.len();
        let prefix = n - n % 8;
        let mut lanes = LaneState::<8>::fresh();
        lanes.processed = prefix;
        unsafe {
            let px = _mm512_set1_pd(p.x);
            let py = _mm512_set1_pd(p.y);
            let zero = _mm512_setzero_pd();
            let one = _mm512_set1_pd(1.0);
            let mut sum = zero;
            let mut comp = zero;
            let mut best_e = _mm512_set1_pd(f64::NEG_INFINITY);
            let mut best_i = zero;
            // `_mm512_set_pd` lists the highest lane first: lane 0 = 0.0.
            let mut idx = _mm512_set_pd(7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0);
            let step = _mm512_set1_pd(8.0);
            let mut j = 0usize;
            while j < prefix {
                let x = _mm512_loadu_pd(xs.as_ptr().add(j));
                let y = _mm512_loadu_pd(ys.as_ptr().add(j));
                let w = _mm512_loadu_pd(powers.as_ptr().add(j));
                let dx = _mm512_sub_pd(x, px);
                let dy = _mm512_sub_pd(y, py);
                // No FMA: see the function docs.
                let d2 = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
                let coincident = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(d2, zero);
                if coincident != 0 {
                    return Err(j + coincident.trailing_zeros() as usize);
                }
                // α = 2 attenuation times power: RN(RN(1/d²)·ψ).
                let e = _mm512_mul_pd(_mm512_div_pd(one, d2), w);
                // Per-lane Neumaier step (the branch becomes a masked
                // blend; `_mm512_abs_pd` keeps us inside AVX512F — the
                // bitwise `_mm512_and_pd` trick would need AVX512DQ).
                let t = _mm512_add_pd(sum, e);
                let sum_bigger =
                    _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_abs_pd(sum), _mm512_abs_pd(e));
                let delta_sum_big = _mm512_add_pd(_mm512_sub_pd(sum, t), e);
                let delta_e_big = _mm512_add_pd(_mm512_sub_pd(e, t), sum);
                comp = _mm512_add_pd(
                    comp,
                    _mm512_mask_blend_pd(sum_bigger, delta_e_big, delta_sum_big),
                );
                sum = t;
                if TRACK_BEST {
                    // Per-lane first-strictly-greater argmax.
                    let gt = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(e, best_e);
                    best_e = _mm512_mask_blend_pd(gt, best_e, e);
                    best_i = _mm512_mask_blend_pd(gt, best_i, idx);
                    idx = _mm512_add_pd(idx, step);
                }
                j += 8;
            }
            _mm512_storeu_pd(lanes.sum.as_mut_ptr(), sum);
            _mm512_storeu_pd(lanes.comp.as_mut_ptr(), comp);
            _mm512_storeu_pd(lanes.best_energy.as_mut_ptr(), best_e);
            let mut raw_idx = [0.0f64; 8];
            _mm512_storeu_pd(raw_idx.as_mut_ptr(), best_i);
            for (slot, raw) in lanes.best_index.iter_mut().zip(raw_idx) {
                // Indices are exact in f64 (slice lengths < 2⁵³).
                *slot = raw as usize;
            }
        }
        Ok(lanes)
    }

    /// 4-lane AVX2 scan over the multiple-of-4 prefix.
    ///
    /// Returns `Err(j)` when station `j` coincides with `p` (smallest
    /// such index). Lane `l` of the accumulators covers indices
    /// `≡ l (mod 4)` within the prefix. With `TRACK_BEST = false` the
    /// argmax blends are compiled out (the candidate-sum path of
    /// `VoronoiAssisted`, which already knows the only candidate).
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx2` at runtime. (The kernel
    /// deliberately avoids FMA — scalar-identical rounding matters more
    /// than the one fused add; see the `d2` comment below.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_avx2<const TRACK_BEST: bool>(
        xs: &[f64],
        ys: &[f64],
        powers: &[f64],
        p: Point,
    ) -> Result<LaneState<4>, usize> {
        let n = xs.len();
        let prefix = n - n % 4;
        let mut lanes = LaneState::<4>::fresh();
        lanes.processed = prefix;
        unsafe {
            let px = _mm256_set1_pd(p.x);
            let py = _mm256_set1_pd(p.y);
            let zero = _mm256_setzero_pd();
            let one = _mm256_set1_pd(1.0);
            let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
            let mut sum = zero;
            let mut comp = zero;
            let mut best_e = _mm256_set1_pd(f64::NEG_INFINITY);
            let mut best_i = zero;
            // `_mm256_set_pd` lists the highest lane first: lane 0 = 0.0.
            let mut idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
            let step = _mm256_set1_pd(4.0);
            let mut j = 0usize;
            while j < prefix {
                let x = _mm256_loadu_pd(xs.as_ptr().add(j));
                let y = _mm256_loadu_pd(ys.as_ptr().add(j));
                let w = _mm256_loadu_pd(powers.as_ptr().add(j));
                let dx = _mm256_sub_pd(x, px);
                let dy = _mm256_sub_pd(y, py);
                // No FMA here on purpose: `RN(RN(dx²) + RN(dy²))` must
                // round exactly like the scalar and tail computations, and
                // a fused `dy·dy + RN(dx²)` can differ by 1 ulp.
                let d2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
                let coincident = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(d2, zero)) as u32;
                if coincident != 0 {
                    // Lowest set bit = lowest lane = smallest index.
                    return Err(j + coincident.trailing_zeros() as usize);
                }
                // α = 2 attenuation times power, rounded exactly like the
                // scalar kernels: RN(RN(1/d²)·ψ), not the 1-ulp-different
                // RN(ψ/d²) — prefix, tail and ground truth must agree
                // bit-for-bit on each station's energy.
                let e = _mm256_mul_pd(_mm256_div_pd(one, d2), w);
                // Per-lane Neumaier step (branch becomes a blend).
                let t = _mm256_add_pd(sum, e);
                let sum_bigger = _mm256_cmp_pd::<_CMP_GE_OQ>(
                    _mm256_and_pd(sum, abs_mask),
                    _mm256_and_pd(e, abs_mask),
                );
                let delta_sum_big = _mm256_add_pd(_mm256_sub_pd(sum, t), e);
                let delta_e_big = _mm256_add_pd(_mm256_sub_pd(e, t), sum);
                comp = _mm256_add_pd(
                    comp,
                    _mm256_blendv_pd(delta_e_big, delta_sum_big, sum_bigger),
                );
                sum = t;
                if TRACK_BEST {
                    // Per-lane first-strictly-greater argmax.
                    let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(e, best_e);
                    best_e = _mm256_blendv_pd(best_e, e, gt);
                    best_i = _mm256_blendv_pd(best_i, idx, gt);
                    idx = _mm256_add_pd(idx, step);
                }
                j += 4;
            }
            _mm256_storeu_pd(lanes.sum.as_mut_ptr(), sum);
            _mm256_storeu_pd(lanes.comp.as_mut_ptr(), comp);
            _mm256_storeu_pd(lanes.best_energy.as_mut_ptr(), best_e);
            let mut raw_idx = [0.0f64; 4];
            _mm256_storeu_pd(raw_idx.as_mut_ptr(), best_i);
            for (slot, raw) in lanes.best_index.iter_mut().zip(raw_idx) {
                // Indices are exact in f64 (slice lengths < 2⁵³).
                *slot = raw as usize;
            }
        }
        Ok(lanes)
    }

    /// 2-lane SSE2 scan over the multiple-of-2 prefix — the x86-64
    /// baseline path, no runtime detection needed. Blends are synthesized
    /// from `and`/`andnot`/`or` (`blendv` is SSE4.1). `TRACK_BEST` as in
    /// [`scan_avx2`].
    pub(super) fn scan_sse2<const TRACK_BEST: bool>(
        xs: &[f64],
        ys: &[f64],
        powers: &[f64],
        p: Point,
    ) -> Result<LaneState<2>, usize> {
        #[inline(always)]
        unsafe fn blend(old: __m128d, new: __m128d, mask: __m128d) -> __m128d {
            unsafe { _mm_or_pd(_mm_and_pd(mask, new), _mm_andnot_pd(mask, old)) }
        }
        let n = xs.len();
        let prefix = n - n % 2;
        let mut lanes = LaneState::<2>::fresh();
        lanes.processed = prefix;
        // SAFETY: SSE2 is part of the x86-64 baseline; all loads stay in
        // bounds (`j + 1 < prefix ≤ n`).
        unsafe {
            let px = _mm_set1_pd(p.x);
            let py = _mm_set1_pd(p.y);
            let zero = _mm_setzero_pd();
            let one = _mm_set1_pd(1.0);
            let abs_mask = _mm_castsi128_pd(_mm_set1_epi64x(0x7fff_ffff_ffff_ffff));
            let mut sum = zero;
            let mut comp = zero;
            let mut best_e = _mm_set1_pd(f64::NEG_INFINITY);
            let mut best_i = zero;
            let mut idx = _mm_set_pd(1.0, 0.0);
            let step = _mm_set1_pd(2.0);
            let mut j = 0usize;
            while j < prefix {
                let x = _mm_loadu_pd(xs.as_ptr().add(j));
                let y = _mm_loadu_pd(ys.as_ptr().add(j));
                let w = _mm_loadu_pd(powers.as_ptr().add(j));
                let dx = _mm_sub_pd(x, px);
                let dy = _mm_sub_pd(y, py);
                let d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
                let coincident = _mm_movemask_pd(_mm_cmpeq_pd(d2, zero)) as u32;
                if coincident != 0 {
                    return Err(j + coincident.trailing_zeros() as usize);
                }
                // Same rounding as the scalar kernels: RN(RN(1/d²)·ψ).
                let e = _mm_mul_pd(_mm_div_pd(one, d2), w);
                let t = _mm_add_pd(sum, e);
                let sum_bigger = _mm_cmpge_pd(_mm_and_pd(sum, abs_mask), _mm_and_pd(e, abs_mask));
                let delta_sum_big = _mm_add_pd(_mm_sub_pd(sum, t), e);
                let delta_e_big = _mm_add_pd(_mm_sub_pd(e, t), sum);
                comp = _mm_add_pd(comp, blend(delta_e_big, delta_sum_big, sum_bigger));
                sum = t;
                if TRACK_BEST {
                    let gt = _mm_cmpgt_pd(e, best_e);
                    best_e = blend(best_e, e, gt);
                    best_i = blend(best_i, idx, gt);
                    idx = _mm_add_pd(idx, step);
                }
                j += 2;
            }
            _mm_storeu_pd(lanes.sum.as_mut_ptr(), sum);
            _mm_storeu_pd(lanes.comp.as_mut_ptr(), comp);
            _mm_storeu_pd(lanes.best_energy.as_mut_ptr(), best_e);
            let mut raw_idx = [0.0f64; 2];
            _mm_storeu_pd(raw_idx.as_mut_ptr(), best_i);
            for (slot, raw) in lanes.best_index.iter_mut().zip(raw_idx) {
                *slot = raw as usize;
            }
        }
        Ok(lanes)
    }
}

/// The explicitly vectorized exact-scan backend.
///
/// Same answers as [`crate::engine::ExactScan`] (exact for every network,
/// any power assignment, any `α`, any `β`; summation rounding may differ
/// only within tolerance of a `SINR = β` boundary), at several stations
/// per instruction on the `α = 2` fast path. The instruction set is
/// detected once at construction — see the [module docs](self) for the
/// feature-detection story and the portable fallback.
#[derive(Debug, Clone)]
pub struct SimdScan {
    eval: SinrEvaluator,
    kernel: SimdKernel,
}

impl SimdScan {
    /// Builds the backend for a network, detecting the widest supported
    /// instruction set (an `O(n)` copy; no query-time detection).
    pub fn new(net: &Network) -> Self {
        SimdScan::from_evaluator(SinrEvaluator::new(net))
    }

    /// Wraps an already-built evaluator, detecting the instruction set.
    pub fn from_evaluator(eval: SinrEvaluator) -> Self {
        SimdScan {
            eval,
            kernel: SimdKernel::detect(),
        }
    }

    /// Wraps an evaluator with an explicitly chosen kernel — for
    /// differential testing of the kernel implementations.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is not supported on the current machine.
    pub fn with_kernel(eval: SinrEvaluator, kernel: SimdKernel) -> Self {
        assert!(
            kernel.is_supported(),
            "SIMD kernel {} is not supported on this machine",
            kernel.name()
        );
        SimdScan { eval, kernel }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &SinrEvaluator {
        &self.eval
    }

    /// The instruction set resolved at construction. Networks with
    /// `α ≠ 2` always scan through [`SimdKernel::Portable`] regardless
    /// (general attenuation needs `powf`).
    pub fn kernel(&self) -> SimdKernel {
        self.kernel
    }

    /// One vectorized scan of all stations.
    fn scan(&self, p: Point) -> Result<Scan, usize> {
        let (xs, ys, powers) = self.eval.soa();
        scan_slices(self.kernel, self.eval.alpha(), xs, ys, powers, p)
    }
}

impl QueryEngine for SimdScan {
    fn locate(&self, p: Point) -> Located {
        self.eval.assert_fresh();
        self.eval.decide(self.scan(p))
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        self.eval.assert_fresh();
        let cfg = crate::tile::TileConfig::default();
        if cfg.engages(points.len(), self.eval.len()) {
            // Tiled execution with this engine's pinned kernel driving
            // the candidate scans and its own full scan as the
            // per-point fallback (see `crate::tile` for the
            // bit-identity contract).
            crate::tile::locate_batch_tiled(
                &self.eval,
                self.kernel,
                crate::tile::Select::MaxEnergy,
                points,
                out,
                &cfg,
                |p| self.eval.decide(self.scan(p)),
            );
            return;
        }
        batch_map(points, out, |p| self.eval.decide(self.scan(*p)));
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        // Reported SINR values need the direct `j ≠ i` interference sum
        // (see `SinrEvaluator::sinr`); the scalar path is already exact.
        self.eval.sinr_batch(i, points, out);
    }

    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        // The intrinsics kernels' summation-order differences are
        // inside `TOTAL_MARGIN`, so the generic certificate covers this
        // backend's lane-reassociated scans too.
        Some(self.eval.sinr_bounds_cell(min, max, parent))
    }

    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        self.eval.assert_fresh();
        // Candidate-certified decisions (the scalar candidate energies
        // are bit-identical to every kernel's, so the certified argmax
        // matches the vectorized scans); uncertifiable points stay
        // `None` for the caller's tiled batch path.
        crate::tile::locate_in_cell(
            &self.eval,
            crate::tile::Select::MaxEnergy,
            cert,
            points,
            out,
        );
        true
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.eval.freshness()
    }

    fn reception_probability_batch(
        &self,
        model: &crate::channel::ChannelModel,
        mc: crate::channel::McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), crate::channel::ChannelError> {
        // The pinned kernel drives both the candidate scans and the
        // per-trial serial fallback, so every trial's reception bit is
        // exactly what this engine's `locate` would answer on the
        // gain-scaled network.
        crate::channel::reception_probability_driver(
            &self.eval,
            self.kernel,
            model,
            mc,
            points,
            out,
            |ev, p| {
                let (xs, ys, powers) = ev.soa();
                ev.decide(scan_slices(self.kernel, ev.alpha(), xs, ys, powers, p))
            },
            |pts, located| self.locate_batch(pts, located),
        )
    }

    fn sinr_quantiles_batch(
        &self,
        model: &crate::channel::ChannelModel,
        mc: crate::channel::McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), crate::channel::ChannelError> {
        crate::channel::sinr_quantiles_driver(&self.eval, model, mc, i, points, quantiles, out)
    }

    fn revision(&self) -> u64 {
        self.eval.revision()
    }

    fn is_stale(&self) -> bool {
        self.eval.is_stale()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        // The SoA patch is kernel-independent; the pinned/detected
        // instruction set stays as constructed.
        self.eval.apply(delta)
    }

    fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
        self.eval.sync(net);
        Ok(())
    }

    fn freeze(&mut self) {
        self.eval.freeze();
    }
}

/// Vectorized single-candidate scan: the total energy `E(S, p)` plus the
/// candidate station's own energy, with **no argmax bookkeeping** — the
/// [`crate::engine::VoronoiAssisted`] hot path, where Observation 2.2
/// has already named the only possible transmitter. Runs on the same
/// lane kernels (and the same per-lane Neumaier compensation) as the
/// full scans, selected by the same `kernel` machinery; `α ≠ 2` networks
/// take the portable blocked kernel.
///
/// Returns `(e_candidate, total)`, or `Err(j)` when `p` coincides with
/// station `j` (smallest index).
pub(crate) fn candidate_scan(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    cand: usize,
    p: Point,
) -> Result<(f64, f64), usize> {
    let (xs, ys, powers) = eval.soa();
    if eval.alpha() == 2.0 {
        let k = InverseSquare;
        #[cfg(target_arch = "x86_64")]
        match kernel {
            SimdKernel::Avx512 => {
                // SAFETY: the kernel was verified at engine build.
                let lanes = unsafe { x86::scan_avx512::<false>(xs, ys, powers, p) }?;
                return finish_sum(eval, k, cand, p, lanes);
            }
            SimdKernel::Avx2 => {
                // SAFETY: the kernel was verified at engine build.
                let lanes = unsafe { x86::scan_avx2::<false>(xs, ys, powers, p) }?;
                return finish_sum(eval, k, cand, p, lanes);
            }
            SimdKernel::Sse2 => {
                let lanes = x86::scan_sse2::<false>(xs, ys, powers, p)?;
                return finish_sum(eval, k, cand, p, lanes);
            }
            SimdKernel::Portable => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        let lanes = blocked_lanes::<_, PORTABLE_LANES, false>(xs, ys, powers, k, p)?;
        finish_sum(eval, k, cand, p, lanes)
    } else {
        let k = GeneralAlpha::new(eval.alpha());
        let lanes = blocked_lanes::<_, PORTABLE_LANES, false>(xs, ys, powers, k, p)?;
        finish_sum(eval, k, cand, p, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinr;

    fn nets() -> Vec<Network> {
        vec![
            // Uniform, β > 1, no noise; n = 3 exercises the AVX2 pure
            // tail (prefix 0) and the SSE2 1-station tail.
            Network::uniform(
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(4.0, 0.0),
                    Point::new(1.0, 3.0),
                ],
                0.0,
                2.0,
            )
            .unwrap(),
            // Uniform, β < 1, noisy, n = 2.
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap(),
            // Non-uniform power, n = 5 (vector prefix + tail on AVX2).
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(0.0, 5.0), 0.5)
                .station_with_power(Point::new(-3.0, -1.0), 1.5)
                .station(Point::new(2.0, -4.0))
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
            // α = 4 → portable generic-α kernel.
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
            // Co-located pair plus more: the `d² = 0` vector-mask path.
            Network::uniform(
                vec![
                    Point::ORIGIN,
                    Point::ORIGIN,
                    Point::new(3.0, 0.0),
                    Point::new(-3.0, 1.0),
                ],
                0.0,
                2.0,
            )
            .unwrap(),
            // n = 11: a real vector prefix *and* tail on the 8-lane
            // AVX-512 kernel (the smaller nets are pure tail there).
            Network::uniform(
                (0..11)
                    .map(|i| Point::new(i as f64 * 2.5, ((i * 7) % 5) as f64))
                    .collect(),
                0.01,
                1.8,
            )
            .unwrap(),
        ]
    }

    fn grid_points(half: f64, steps: i32) -> Vec<Point> {
        let mut pts = Vec::new();
        for a in -steps..=steps {
            for b in -steps..=steps {
                pts.push(Point::new(
                    a as f64 * half / steps as f64,
                    b as f64 * half / steps as f64,
                ));
            }
        }
        pts
    }

    fn supported_kernels() -> Vec<SimdKernel> {
        SimdKernel::ALL
            .into_iter()
            .filter(|k| k.is_supported())
            .collect()
    }

    #[test]
    fn detected_kernel_is_supported() {
        let k = SimdKernel::detect();
        assert!(k.is_supported());
        assert!(k.lanes() >= 2);
        assert!(!k.name().is_empty());
    }

    #[test]
    fn every_supported_kernel_matches_scalar_ground_truth() {
        for net in nets() {
            for kernel in supported_kernels() {
                let engine = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                assert_eq!(engine.kernel(), kernel);
                for p in grid_points(6.0, 25) {
                    let expected = sinr::heard_at(&net, p);
                    let got = engine.locate(p);
                    assert!(
                        !matches!(got, Located::Uncertain(_)),
                        "SimdScan answered Uncertain"
                    );
                    if got.station() != expected {
                        // Tolerate only genuine boundary rounding.
                        let boundary = net.ids().any(|i| {
                            let s = sinr::sinr(&net, i, p);
                            s.is_finite() && (s - net.beta()).abs() <= 1e-9 * (1.0 + net.beta())
                        });
                        assert!(
                            boundary,
                            "{} kernel disagrees at {p} in {net}: {:?} vs {:?}",
                            kernel.name(),
                            got.station(),
                            expected
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn station_positions_locate_as_reception() {
        for net in nets() {
            for kernel in supported_kernels() {
                let engine = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                for i in net.ids() {
                    match engine.locate(net.position(i)) {
                        Located::Reception(_) => {}
                        other => panic!("station {i} of {net} ({}): {other:?}", kernel.name()),
                    }
                }
            }
        }
    }

    #[test]
    fn batch_equals_serial_exactly() {
        for net in nets() {
            let engine = SimdScan::new(&net);
            let points = grid_points(5.0, 30);
            let mut batch = vec![Located::Silent; points.len()];
            engine.locate_batch(&points, &mut batch);
            for (p, got) in points.iter().zip(&batch) {
                assert_eq!(*got, engine.locate(*p), "batch/serial mismatch at {p}");
            }
        }
    }

    #[test]
    fn sinr_batch_matches_scalar() {
        let net = &nets()[2];
        let engine = SimdScan::new(net);
        let points = grid_points(5.0, 10);
        let mut out = vec![0.0; points.len()];
        for i in net.ids() {
            engine.sinr_batch(i, &points, &mut out);
            for (p, got) in points.iter().zip(&out) {
                let expected = sinr::sinr(net, i, *p);
                if expected.is_infinite() {
                    assert!(got.is_infinite());
                } else {
                    assert!((got - expected).abs() <= 1e-9 * (1.0 + expected.abs()));
                }
            }
        }
    }

    #[test]
    fn kernel_metadata() {
        assert_eq!(SimdKernel::Avx512.lanes(), 8);
        assert_eq!(SimdKernel::Avx2.lanes(), 4);
        assert_eq!(SimdKernel::Sse2.lanes(), 2);
        assert_eq!(SimdKernel::Portable.lanes(), 4);
        assert_eq!(SimdKernel::Avx512.name(), "avx512");
        assert_eq!(SimdKernel::Avx2.name(), "avx2");
        assert_eq!(SimdKernel::Sse2.name(), "sse2");
        assert_eq!(SimdKernel::Portable.name(), "portable");
        assert!(SimdKernel::Portable.is_supported());
        assert_eq!(SimdKernel::ALL.len(), 4);
    }
}
