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
//! ## Envelope pruning
//!
//! The same kernels also run the tiled executor's certified candidate
//! pruning (`prune_to_box`, shared by its tile and sub-tile levels; see
//! [`crate::tile`]): a branch-free `α = 2` envelope pass whose per-lane
//! operation sequence is exactly that of
//! [`crate::bounds::energy_envelope`] — so every kernel yields the
//! scalar envelopes bit for bit — then a keep bitmap and residual sums
//! over a fixed set of accumulators, identical on every kernel. The
//! cell certificates of [`crate::tile`] run the same envelope pass.
//!
//! Each x86 width pays for its intrinsics. With the kernel pinned on a
//! 2-vCPU AVX-512 VM (4096 stations), the envelope pass costs about
//! 1.7 ns per station on AVX-512, 1.8 on AVX2, 2.9 on SSE2 and 7–10 on
//! the scalar reference; a branch-free compare-select scalar loop
//! compiled under `#[target_feature]` did not autovectorize below
//! ~4.3 ns. On the sparse 16384-point tiled batch, swapping each
//! kernel's prune pass for the scalar one costs AVX2 ~1.55× and SSE2
//! ~1.5× in ns per point.
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

use crate::bounds::{dist2_range_to_box, energy_envelope};
use crate::engine::{
    batch_map, GeneralAlpha, InverseSquare, LocateError, Located, PathLoss, QueryEngine, Scan,
    SinrEvaluator, SyncError,
};
use crate::network::{Network, NetworkDelta};
use crate::station::StationId;
use crate::tile::BOUND_MARGIN;
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
/// columns as well as whole-network ones. With `TRACK_BEST = false`
/// only the total is merged (`best` stays 0, `best_energy` `−∞`).
fn finish<K: PathLoss, const L: usize, const TRACK_BEST: bool>(
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
            if TRACK_BEST && (e > best_energy || (e == best_energy && i < best)) {
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
        if TRACK_BEST && e > best_energy {
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
    scan_lanes::<true>(kernel, alpha, xs, ys, powers, p)
}

/// The kernel dispatch of [`scan_slices`] and [`candidate_scan`]: the
/// lane pass on `kernel`, then the shared merge. With
/// `TRACK_BEST = false` the argmax bookkeeping is compiled out.
fn scan_lanes<const TRACK_BEST: bool>(
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
                let lanes = unsafe { x86::scan_avx512::<TRACK_BEST>(xs, ys, powers, p) }?;
                return finish::<_, _, TRACK_BEST>(xs, ys, powers, k, p, lanes);
            }
            SimdKernel::Avx2 => {
                // SAFETY: as above.
                let lanes = unsafe { x86::scan_avx2::<TRACK_BEST>(xs, ys, powers, p) }?;
                return finish::<_, _, TRACK_BEST>(xs, ys, powers, k, p, lanes);
            }
            SimdKernel::Sse2 => {
                let lanes = x86::scan_sse2::<TRACK_BEST>(xs, ys, powers, p)?;
                return finish::<_, _, TRACK_BEST>(xs, ys, powers, k, p, lanes);
            }
            SimdKernel::Portable => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        let lanes = blocked_lanes::<_, PORTABLE_LANES, TRACK_BEST>(xs, ys, powers, k, p)?;
        finish::<_, _, TRACK_BEST>(xs, ys, powers, k, p, lanes)
    } else {
        let k = GeneralAlpha::new(alpha);
        let lanes = blocked_lanes::<_, PORTABLE_LANES, TRACK_BEST>(xs, ys, powers, k, p)?;
        finish::<_, _, TRACK_BEST>(xs, ys, powers, k, p, lanes)
    }
}

// ---------------------------------------------------------------------
// Certified envelope pruning
// ---------------------------------------------------------------------

/// Accumulators of the prune pass's residual sums: pruned station `j`
/// (by position in the input columns) adds into accumulator
/// `j mod PRUNE_ACCS`, in ascending `j`, and the accumulators are
/// reduced pairwise in a fixed order — the same on every kernel, so the
/// residual interval is bit-identical whichever kernel ran the pass.
const PRUNE_ACCS: usize = 8;

/// An axis-aligned query box `[min_x, max_x] × [min_y, max_y]` with
/// finite corners.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryBox {
    pub(crate) min_x: f64,
    pub(crate) min_y: f64,
    pub(crate) max_x: f64,
    pub(crate) max_y: f64,
}

/// Gathered SoA candidate columns: positions, powers and network
/// station indices, ascending by index (the argmax and nearest-station
/// first-index tie rules ride on the order).
#[derive(Debug, Default)]
pub(crate) struct Columns {
    pub(crate) xs: Vec<f64>,
    pub(crate) ys: Vec<f64>,
    pub(crate) ws: Vec<f64>,
    pub(crate) idx: Vec<u32>,
}

impl Columns {
    /// Number of gathered stations.
    pub(crate) fn len(&self) -> usize {
        self.idx.len()
    }
}

/// Work buffers of [`prune_to_box`] (per-station envelope columns and
/// the keep bitmap), reused across calls.
#[derive(Debug, Default)]
pub(crate) struct PruneScratch {
    lb: Vec<f64>,
    ub: Vec<f64>,
    keep: Vec<u64>,
}

/// Certified candidate pruning of SoA station columns over a query box
/// — the one routine behind both levels of the tiled executor
/// ([`crate::tile`]): the tile-level pass over the whole network and
/// the sub-tile re-prune of a tile's candidate list.
///
/// 1. **Envelope pass**: each station's certified energy envelope
///    `[lo, hi]` over the box — for `α = 2` a branch-free vector pass
///    on `kernel` that performs exactly the IEEE operation sequence of
///    [`crate::bounds::dist2_range_to_box`] followed by
///    [`crate::bounds::energy_envelope`] (widened by
///    [`crate::tile::BOUND_MARGIN`]), so the envelopes are
///    bit-identical to the scalar ones; `α ≠ 2` keeps the scalar
///    `powf` envelope. `M` is the best envelope bottom.
/// 2. **Keep pass**: stations with `hi ≥ M` are kept as a bitmap; the
///    rest are provably below the `M` station everywhere in the box and
///    their envelope ends are summed into the residual interval over
///    [`PRUNE_ACCS`] accumulators.
/// 3. **Gather**: the kept stations' columns (and their network
///    indices — `idx[j]`, or `j` itself when `idx` is `None`) are copied
///    into `out` in ascending order by walking the bitmap's set bits.
///
/// Returns the residual interval `(L, U)`: the sums of the pruned
/// stations' envelope bottoms and tops. Every kernel yields the same
/// envelopes, kept set and residual bits. `kernel` must be supported on
/// the current machine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prune_to_box(
    kernel: SimdKernel,
    alpha: f64,
    b: QueryBox,
    xs: &[f64],
    ys: &[f64],
    ws: &[f64],
    idx: Option<&[u32]>,
    scratch: &mut PruneScratch,
    out: &mut Columns,
) -> (f64, f64) {
    let n = xs.len();
    assert!(
        ys.len() == n && ws.len() == n && idx.is_none_or(|m| m.len() == n),
        "prune_to_box: column lengths differ"
    );
    scratch.lb.resize(n, 0.0);
    scratch.ub.resize(n, 0.0);
    let m = envelopes(
        kernel,
        alpha,
        b,
        xs,
        ys,
        ws,
        &mut scratch.lb,
        &mut scratch.ub,
    );
    scratch.keep.clear();
    scratch.keep.resize(n.div_ceil(64), 0);
    let (acc_lo, acc_hi) = keep_pass(kernel, m, &scratch.lb, &scratch.ub, &mut scratch.keep);
    out.xs.clear();
    out.ys.clear();
    out.ws.clear();
    out.idx.clear();
    for (word_at, &word) in scratch.keep.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let j = word_at * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out.xs.push(xs[j]);
            out.ys.push(ys[j]);
            out.ws.push(ws[j]);
            out.idx.push(idx.map_or(j as u32, |m| m[j]));
        }
    }
    (reduce_accs(&acc_lo), reduce_accs(&acc_hi))
}

/// The fixed pairwise reduction of the residual accumulators.
fn reduce_accs(a: &[f64; PRUNE_ACCS]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// Envelope pass dispatch: fills `lb`/`ub` with every station's
/// certified energy envelope over `b` — bit-identical to
/// [`crate::bounds::dist2_range_to_box`] followed by
/// [`crate::bounds::energy_envelope`] widened by
/// [`crate::tile::BOUND_MARGIN`], on every kernel — and returns
/// `M = max lb`. Shared by [`prune_to_box`] and the cell certificates
/// of [`crate::tile`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn envelopes(
    kernel: SimdKernel,
    alpha: f64,
    b: QueryBox,
    xs: &[f64],
    ys: &[f64],
    ws: &[f64],
    lb: &mut [f64],
    ub: &mut [f64],
) -> f64 {
    if alpha != 2.0 {
        return envelopes_scalar(
            GeneralAlpha::new(alpha),
            b,
            xs,
            ys,
            ws,
            lb,
            ub,
            0,
            f64::NEG_INFINITY,
        );
    }
    #[cfg(target_arch = "x86_64")]
    match kernel {
        // SAFETY: support was verified at kernel selection time.
        SimdKernel::Avx512 => return unsafe { x86::envelopes_avx512(b, xs, ys, ws, lb, ub) },
        // SAFETY: as above.
        SimdKernel::Avx2 => return unsafe { x86::envelopes_avx2(b, xs, ys, ws, lb, ub) },
        SimdKernel::Sse2 => return x86::envelopes_sse2(b, xs, ys, ws, lb, ub),
        SimdKernel::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel;
    envelopes_scalar(InverseSquare, b, xs, ys, ws, lb, ub, 0, f64::NEG_INFINITY)
}

/// The scalar envelope pass over `start..n` — the reference the vector
/// passes reproduce bit for bit, and their `n mod lanes` tail. Returns
/// the running maximum of `lb`, seeded with `m`.
#[allow(clippy::too_many_arguments)]
fn envelopes_scalar<K: PathLoss>(
    k: K,
    b: QueryBox,
    xs: &[f64],
    ys: &[f64],
    ws: &[f64],
    lb: &mut [f64],
    ub: &mut [f64],
    start: usize,
    mut m: f64,
) -> f64 {
    for j in start..xs.len() {
        let (d_min, d_max) = dist2_range_to_box(b.min_x, b.min_y, b.max_x, b.max_y, xs[j], ys[j]);
        let (lo, hi) = energy_envelope(k, ws[j], d_min, d_max, BOUND_MARGIN);
        lb[j] = lo;
        ub[j] = hi;
        if lo > m {
            m = lo;
        }
    }
    m
}

/// Keep pass dispatch: sets the keep bits of stations with `ub ≥ m`
/// and returns the per-accumulator residual sums of the rest.
fn keep_pass(
    kernel: SimdKernel,
    m: f64,
    lb: &[f64],
    ub: &[f64],
    keep: &mut [u64],
) -> ([f64; PRUNE_ACCS], [f64; PRUNE_ACCS]) {
    #[cfg(target_arch = "x86_64")]
    match kernel {
        // SAFETY: support was verified at kernel selection time.
        SimdKernel::Avx512 => return unsafe { x86::keep_avx512(m, lb, ub, keep) },
        // SAFETY: as above.
        SimdKernel::Avx2 => return unsafe { x86::keep_avx2(m, lb, ub, keep) },
        SimdKernel::Sse2 => return x86::keep_sse2(m, lb, ub, keep),
        SimdKernel::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel;
    let mut acc_lo = [0.0; PRUNE_ACCS];
    let mut acc_hi = [0.0; PRUNE_ACCS];
    keep_scalar(m, lb, ub, keep, 0, &mut acc_lo, &mut acc_hi);
    (acc_lo, acc_hi)
}

/// The scalar keep pass over `start..n` (`start` a multiple of
/// [`PRUNE_ACCS`]) — the reference, and the vector passes' tail.
fn keep_scalar(
    m: f64,
    lb: &[f64],
    ub: &[f64],
    keep: &mut [u64],
    start: usize,
    acc_lo: &mut [f64; PRUNE_ACCS],
    acc_hi: &mut [f64; PRUNE_ACCS],
) {
    for j in start..ub.len() {
        if ub[j] >= m {
            keep[j / 64] |= 1 << (j % 64);
        } else {
            acc_lo[j % PRUNE_ACCS] += lb[j];
            acc_hi[j % PRUNE_ACCS] += ub[j];
        }
    }
}

/// The x86-64 intrinsic kernels (α = 2 only: attenuation is one divide).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{envelopes_scalar, keep_scalar, LaneState, QueryBox, PRUNE_ACCS};
    use crate::engine::InverseSquare;
    use crate::tile::BOUND_MARGIN;
    use sinr_geometry::Point;
    use std::arch::x86_64::*;

    /// The residual accumulators a keep pass returns.
    type Accs = ([f64; PRUNE_ACCS], [f64; PRUNE_ACCS]);

    /// Bounds shared by the vector envelope and keep passes: the
    /// unchecked loads and stores below stay inside these lengths.
    fn check_columns(xs: &[f64], ys: &[f64], ws: &[f64], lb: &[f64], ub: &[f64]) {
        let n = xs.len();
        assert!(ys.len() == n && ws.len() == n && lb.len() >= n && ub.len() >= n);
    }

    /// 8-lane AVX-512F envelope pass over the multiple-of-8 prefix, the
    /// scalar reference finishing the tail. Every lane performs the
    /// operation sequence of `dist2_range_to_box` + `energy_envelope`
    /// without FMA: `max` of the same operands (equal up to the sign of
    /// zero, which the squares erase — no NaN arises from finite
    /// inputs), `RN(RN(a²) + RN(b²))`, then `RN(RN(RN(1/d²)·ψ)·(1∓m))`,
    /// with the `d² > 0` branch as a blend against `∞`.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn envelopes_avx512(
        b: QueryBox,
        xs: &[f64],
        ys: &[f64],
        ws: &[f64],
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> f64 {
        check_columns(xs, ys, ws, lb, ub);
        let n = xs.len();
        let prefix = n - n % 8;
        let mut m = f64::NEG_INFINITY;
        // SAFETY: every access is at `j..j + 8` with `j + 8 ≤ prefix ≤ n`
        // and all five columns hold at least `n` values.
        unsafe {
            let min_x = _mm512_set1_pd(b.min_x);
            let min_y = _mm512_set1_pd(b.min_y);
            let max_x = _mm512_set1_pd(b.max_x);
            let max_y = _mm512_set1_pd(b.max_y);
            let zero = _mm512_setzero_pd();
            let one = _mm512_set1_pd(1.0);
            let inf = _mm512_set1_pd(f64::INFINITY);
            let lo_scale = _mm512_set1_pd(1.0 - BOUND_MARGIN);
            let hi_scale = _mm512_set1_pd(1.0 + BOUND_MARGIN);
            let mut best = _mm512_set1_pd(f64::NEG_INFINITY);
            let mut j = 0usize;
            while j < prefix {
                let x = _mm512_loadu_pd(xs.as_ptr().add(j));
                let y = _mm512_loadu_pd(ys.as_ptr().add(j));
                let w = _mm512_loadu_pd(ws.as_ptr().add(j));
                let dx_out = _mm512_max_pd(
                    _mm512_max_pd(_mm512_sub_pd(min_x, x), _mm512_sub_pd(x, max_x)),
                    zero,
                );
                let dy_out = _mm512_max_pd(
                    _mm512_max_pd(_mm512_sub_pd(min_y, y), _mm512_sub_pd(y, max_y)),
                    zero,
                );
                let dx_far = _mm512_max_pd(_mm512_sub_pd(x, min_x), _mm512_sub_pd(max_x, x));
                let dy_far = _mm512_max_pd(_mm512_sub_pd(y, min_y), _mm512_sub_pd(max_y, y));
                let d_min =
                    _mm512_add_pd(_mm512_mul_pd(dx_out, dx_out), _mm512_mul_pd(dy_out, dy_out));
                let d_max =
                    _mm512_add_pd(_mm512_mul_pd(dx_far, dx_far), _mm512_mul_pd(dy_far, dy_far));
                let lo = _mm512_mul_pd(_mm512_mul_pd(_mm512_div_pd(one, d_max), w), lo_scale);
                let hi = _mm512_mul_pd(_mm512_mul_pd(_mm512_div_pd(one, d_min), w), hi_scale);
                let lo =
                    _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_GT_OQ>(d_max, zero), inf, lo);
                let hi =
                    _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_GT_OQ>(d_min, zero), inf, hi);
                _mm512_storeu_pd(lb.as_mut_ptr().add(j), lo);
                _mm512_storeu_pd(ub.as_mut_ptr().add(j), hi);
                best = _mm512_max_pd(best, lo);
                j += 8;
            }
            let mut lanes = [0.0f64; 8];
            _mm512_storeu_pd(lanes.as_mut_ptr(), best);
            for v in lanes {
                if v > m {
                    m = v;
                }
            }
        }
        envelopes_scalar(InverseSquare, b, xs, ys, ws, lb, ub, prefix, m)
    }

    /// 4-lane AVX2 envelope pass: [`envelopes_avx512`] at half width.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn envelopes_avx2(
        b: QueryBox,
        xs: &[f64],
        ys: &[f64],
        ws: &[f64],
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> f64 {
        check_columns(xs, ys, ws, lb, ub);
        let n = xs.len();
        let prefix = n - n % 4;
        let mut m = f64::NEG_INFINITY;
        // SAFETY: every access is at `j..j + 4` with `j + 4 ≤ prefix ≤ n`.
        unsafe {
            let min_x = _mm256_set1_pd(b.min_x);
            let min_y = _mm256_set1_pd(b.min_y);
            let max_x = _mm256_set1_pd(b.max_x);
            let max_y = _mm256_set1_pd(b.max_y);
            let zero = _mm256_setzero_pd();
            let one = _mm256_set1_pd(1.0);
            let inf = _mm256_set1_pd(f64::INFINITY);
            let lo_scale = _mm256_set1_pd(1.0 - BOUND_MARGIN);
            let hi_scale = _mm256_set1_pd(1.0 + BOUND_MARGIN);
            let mut best = _mm256_set1_pd(f64::NEG_INFINITY);
            let mut j = 0usize;
            while j < prefix {
                let x = _mm256_loadu_pd(xs.as_ptr().add(j));
                let y = _mm256_loadu_pd(ys.as_ptr().add(j));
                let w = _mm256_loadu_pd(ws.as_ptr().add(j));
                let dx_out = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(min_x, x), _mm256_sub_pd(x, max_x)),
                    zero,
                );
                let dy_out = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(min_y, y), _mm256_sub_pd(y, max_y)),
                    zero,
                );
                let dx_far = _mm256_max_pd(_mm256_sub_pd(x, min_x), _mm256_sub_pd(max_x, x));
                let dy_far = _mm256_max_pd(_mm256_sub_pd(y, min_y), _mm256_sub_pd(max_y, y));
                let d_min =
                    _mm256_add_pd(_mm256_mul_pd(dx_out, dx_out), _mm256_mul_pd(dy_out, dy_out));
                let d_max =
                    _mm256_add_pd(_mm256_mul_pd(dx_far, dx_far), _mm256_mul_pd(dy_far, dy_far));
                let lo = _mm256_mul_pd(_mm256_mul_pd(_mm256_div_pd(one, d_max), w), lo_scale);
                let hi = _mm256_mul_pd(_mm256_mul_pd(_mm256_div_pd(one, d_min), w), hi_scale);
                let lo = _mm256_blendv_pd(inf, lo, _mm256_cmp_pd::<_CMP_GT_OQ>(d_max, zero));
                let hi = _mm256_blendv_pd(inf, hi, _mm256_cmp_pd::<_CMP_GT_OQ>(d_min, zero));
                _mm256_storeu_pd(lb.as_mut_ptr().add(j), lo);
                _mm256_storeu_pd(ub.as_mut_ptr().add(j), hi);
                best = _mm256_max_pd(best, lo);
                j += 4;
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), best);
            for v in lanes {
                if v > m {
                    m = v;
                }
            }
        }
        envelopes_scalar(InverseSquare, b, xs, ys, ws, lb, ub, prefix, m)
    }

    /// 2-lane SSE2 envelope pass (the x86-64 baseline): blends from
    /// `and`/`andnot`/`or`.
    pub(super) fn envelopes_sse2(
        b: QueryBox,
        xs: &[f64],
        ys: &[f64],
        ws: &[f64],
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> f64 {
        check_columns(xs, ys, ws, lb, ub);
        let n = xs.len();
        let prefix = n - n % 2;
        let mut m = f64::NEG_INFINITY;
        // SAFETY: SSE2 is part of the x86-64 baseline; every access is
        // at `j..j + 2` with `j + 2 ≤ prefix ≤ n`.
        unsafe {
            let blend = |old: __m128d, new: __m128d, mask: __m128d| {
                _mm_or_pd(_mm_and_pd(mask, new), _mm_andnot_pd(mask, old))
            };
            let min_x = _mm_set1_pd(b.min_x);
            let min_y = _mm_set1_pd(b.min_y);
            let max_x = _mm_set1_pd(b.max_x);
            let max_y = _mm_set1_pd(b.max_y);
            let zero = _mm_setzero_pd();
            let one = _mm_set1_pd(1.0);
            let inf = _mm_set1_pd(f64::INFINITY);
            let lo_scale = _mm_set1_pd(1.0 - BOUND_MARGIN);
            let hi_scale = _mm_set1_pd(1.0 + BOUND_MARGIN);
            let mut best = _mm_set1_pd(f64::NEG_INFINITY);
            let mut j = 0usize;
            while j < prefix {
                let x = _mm_loadu_pd(xs.as_ptr().add(j));
                let y = _mm_loadu_pd(ys.as_ptr().add(j));
                let w = _mm_loadu_pd(ws.as_ptr().add(j));
                let dx_out =
                    _mm_max_pd(_mm_max_pd(_mm_sub_pd(min_x, x), _mm_sub_pd(x, max_x)), zero);
                let dy_out =
                    _mm_max_pd(_mm_max_pd(_mm_sub_pd(min_y, y), _mm_sub_pd(y, max_y)), zero);
                let dx_far = _mm_max_pd(_mm_sub_pd(x, min_x), _mm_sub_pd(max_x, x));
                let dy_far = _mm_max_pd(_mm_sub_pd(y, min_y), _mm_sub_pd(max_y, y));
                let d_min = _mm_add_pd(_mm_mul_pd(dx_out, dx_out), _mm_mul_pd(dy_out, dy_out));
                let d_max = _mm_add_pd(_mm_mul_pd(dx_far, dx_far), _mm_mul_pd(dy_far, dy_far));
                let lo = _mm_mul_pd(_mm_mul_pd(_mm_div_pd(one, d_max), w), lo_scale);
                let hi = _mm_mul_pd(_mm_mul_pd(_mm_div_pd(one, d_min), w), hi_scale);
                let lo = blend(inf, lo, _mm_cmpgt_pd(d_max, zero));
                let hi = blend(inf, hi, _mm_cmpgt_pd(d_min, zero));
                _mm_storeu_pd(lb.as_mut_ptr().add(j), lo);
                _mm_storeu_pd(ub.as_mut_ptr().add(j), hi);
                best = _mm_max_pd(best, lo);
                j += 2;
            }
            let mut lanes = [0.0f64; 2];
            _mm_storeu_pd(lanes.as_mut_ptr(), best);
            for v in lanes {
                if v > m {
                    m = v;
                }
            }
        }
        envelopes_scalar(InverseSquare, b, xs, ys, ws, lb, ub, prefix, m)
    }

    /// Bounds of the vector keep passes (lengths and bitmap size).
    fn check_keep(lb: &[f64], ub: &[f64], keep: &[u64]) {
        assert!(lb.len() == ub.len() && keep.len() * 64 >= ub.len());
    }

    /// AVX-512F keep pass over blocks of [`PRUNE_ACCS`] stations: one
    /// compare mask per block becomes eight keep bits, and the pruned
    /// lanes add into the lane-`j mod 8` accumulators (masked adds, so
    /// kept lanes are skipped exactly as in the scalar reference).
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn keep_avx512(m: f64, lb: &[f64], ub: &[f64], keep: &mut [u64]) -> Accs {
        check_keep(lb, ub, keep);
        let n = ub.len();
        let prefix = n - n % PRUNE_ACCS;
        let mut acc_lo = [0.0; PRUNE_ACCS];
        let mut acc_hi = [0.0; PRUNE_ACCS];
        // SAFETY: every access is at `j..j + 8` with `j + 8 ≤ prefix ≤ n`.
        unsafe {
            let mv = _mm512_set1_pd(m);
            let mut lo_sum = _mm512_setzero_pd();
            let mut hi_sum = _mm512_setzero_pd();
            let mut j = 0usize;
            while j < prefix {
                let lo = _mm512_loadu_pd(lb.as_ptr().add(j));
                let hi = _mm512_loadu_pd(ub.as_ptr().add(j));
                let kept = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(hi, mv);
                lo_sum = _mm512_mask_add_pd(lo_sum, !kept, lo_sum, lo);
                hi_sum = _mm512_mask_add_pd(hi_sum, !kept, hi_sum, hi);
                keep[j / 64] |= u64::from(kept) << (j % 64);
                j += 8;
            }
            _mm512_storeu_pd(acc_lo.as_mut_ptr(), lo_sum);
            _mm512_storeu_pd(acc_hi.as_mut_ptr(), hi_sum);
        }
        keep_scalar(m, lb, ub, keep, prefix, &mut acc_lo, &mut acc_hi);
        (acc_lo, acc_hi)
    }

    /// AVX2 keep pass: two 4-lane halves per block; pruned lanes add
    /// `andnot(kept, v)` — `v` where pruned, `+0.0` (an exact no-op on
    /// the non-negative sums) where kept.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn keep_avx2(m: f64, lb: &[f64], ub: &[f64], keep: &mut [u64]) -> Accs {
        check_keep(lb, ub, keep);
        let n = ub.len();
        let prefix = n - n % PRUNE_ACCS;
        let mut acc_lo = [0.0; PRUNE_ACCS];
        let mut acc_hi = [0.0; PRUNE_ACCS];
        // SAFETY: every access is at `j..j + 8` with `j + 8 ≤ prefix ≤ n`.
        unsafe {
            let mv = _mm256_set1_pd(m);
            let mut lo_sum = [_mm256_setzero_pd(); 2];
            let mut hi_sum = [_mm256_setzero_pd(); 2];
            let mut j = 0usize;
            while j < prefix {
                let mut bits = 0u64;
                for h in 0..2 {
                    let lo = _mm256_loadu_pd(lb.as_ptr().add(j + 4 * h));
                    let hi = _mm256_loadu_pd(ub.as_ptr().add(j + 4 * h));
                    let kept = _mm256_cmp_pd::<_CMP_GE_OQ>(hi, mv);
                    lo_sum[h] = _mm256_add_pd(lo_sum[h], _mm256_andnot_pd(kept, lo));
                    hi_sum[h] = _mm256_add_pd(hi_sum[h], _mm256_andnot_pd(kept, hi));
                    bits |= (_mm256_movemask_pd(kept) as u64) << (4 * h);
                }
                keep[j / 64] |= bits << (j % 64);
                j += 8;
            }
            for h in 0..2 {
                _mm256_storeu_pd(acc_lo.as_mut_ptr().add(4 * h), lo_sum[h]);
                _mm256_storeu_pd(acc_hi.as_mut_ptr().add(4 * h), hi_sum[h]);
            }
        }
        keep_scalar(m, lb, ub, keep, prefix, &mut acc_lo, &mut acc_hi);
        (acc_lo, acc_hi)
    }

    /// SSE2 keep pass: four 2-lane quarters per block, as [`keep_avx2`].
    pub(super) fn keep_sse2(m: f64, lb: &[f64], ub: &[f64], keep: &mut [u64]) -> Accs {
        check_keep(lb, ub, keep);
        let n = ub.len();
        let prefix = n - n % PRUNE_ACCS;
        let mut acc_lo = [0.0; PRUNE_ACCS];
        let mut acc_hi = [0.0; PRUNE_ACCS];
        // SAFETY: SSE2 is part of the x86-64 baseline; every access is
        // at `j..j + 8` with `j + 8 ≤ prefix ≤ n`.
        unsafe {
            let mv = _mm_set1_pd(m);
            let mut lo_sum = [_mm_setzero_pd(); 4];
            let mut hi_sum = [_mm_setzero_pd(); 4];
            let mut j = 0usize;
            while j < prefix {
                let mut bits = 0u64;
                for q in 0..4 {
                    let lo = _mm_loadu_pd(lb.as_ptr().add(j + 2 * q));
                    let hi = _mm_loadu_pd(ub.as_ptr().add(j + 2 * q));
                    let kept = _mm_cmpge_pd(hi, mv);
                    lo_sum[q] = _mm_add_pd(lo_sum[q], _mm_andnot_pd(kept, lo));
                    hi_sum[q] = _mm_add_pd(hi_sum[q], _mm_andnot_pd(kept, hi));
                    bits |= (_mm_movemask_pd(kept) as u64) << (2 * q);
                }
                keep[j / 64] |= bits << (j % 64);
                j += 8;
            }
            for q in 0..4 {
                _mm_storeu_pd(acc_lo.as_mut_ptr().add(2 * q), lo_sum[q]);
                _mm_storeu_pd(acc_hi.as_mut_ptr().add(2 * q), hi_sum[q]);
            }
        }
        keep_scalar(m, lb, ub, keep, prefix, &mut acc_lo, &mut acc_hi);
        (acc_lo, acc_hi)
    }

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
        // backend's lane-reassociated scans too; the pinned kernel runs
        // its envelope pass (bit-identical on every kernel).
        self.eval.assert_fresh();
        Some(crate::tile::cell_certificate(
            &self.eval,
            self.kernel,
            min,
            max,
            parent,
        ))
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
    let alpha = eval.alpha();
    let total = scan_lanes::<false>(kernel, alpha, xs, ys, powers, p)?.total;
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
    let att = if alpha == 2.0 {
        InverseSquare.attenuation(d2)
    } else {
        GeneralAlpha::new(alpha).attenuation(d2)
    };
    Ok((att * powers[cand], total))
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

    /// The scalar reference of [`prune_to_box`]: per-station
    /// `dist2_range_to_box` + `energy_envelope`, `M = max lo`, keep
    /// `hi ≥ M`, pruned ends summed into accumulator `j mod 8` and
    /// reduced pairwise. Returns `(lb, ub, kept positions, L, U)`.
    #[allow(clippy::type_complexity)]
    fn reference_prune(
        alpha: f64,
        b: QueryBox,
        xs: &[f64],
        ys: &[f64],
        ws: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<usize>, f64, f64) {
        let (mut lb, mut ub) = (Vec::new(), Vec::new());
        for j in 0..xs.len() {
            let (d_min, d_max) =
                dist2_range_to_box(b.min_x, b.min_y, b.max_x, b.max_y, xs[j], ys[j]);
            let (lo, hi) = if alpha == 2.0 {
                energy_envelope(InverseSquare, ws[j], d_min, d_max, BOUND_MARGIN)
            } else {
                energy_envelope(GeneralAlpha::new(alpha), ws[j], d_min, d_max, BOUND_MARGIN)
            };
            lb.push(lo);
            ub.push(hi);
        }
        let m = lb
            .iter()
            .fold(f64::NEG_INFINITY, |m, &lo| if lo > m { lo } else { m });
        let kept: Vec<usize> = (0..xs.len()).filter(|&j| ub[j] >= m).collect();
        let mut acc_lo = [0.0; 8];
        let mut acc_hi = [0.0; 8];
        for j in (0..xs.len()).filter(|&j| ub[j] < m) {
            acc_lo[j % 8] += lb[j];
            acc_hi[j % 8] += ub[j];
        }
        let reduce =
            |a: [f64; 8]| ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        (lb, ub, kept, reduce(acc_lo), reduce(acc_hi))
    }

    /// Every kernel's prune pass reproduces the scalar reference bit for
    /// bit — envelopes, kept indices (through an index map), gathered
    /// columns and residual sums — on random boxes, with stations
    /// strictly inside and exactly on the box edge (`∞` tops), a
    /// zero-area box on a station (`∞` bottom, so `M = ∞`), non-uniform
    /// powers, every tail length, and `α = 3` (the scalar `powf` pass).
    #[test]
    fn prune_pass_matches_scalar_envelope_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let mut scratch = PruneScratch::default();
        let mut out = Columns::default();
        for case in 0..200 {
            let n = if case % 10 == 9 {
                1000 + case
            } else {
                case % 41
            };
            let alpha = if case % 7 == 3 { 3.0 } else { 2.0 };
            let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-20.0..20.0)).collect();
            let mut ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-20.0..20.0)).collect();
            let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.25..4.0)).collect();
            let cx = rng.gen_range(-15.0..15.0);
            let cy = rng.gen_range(-15.0..15.0);
            let (hw, hh) = (rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0));
            let mut b = QueryBox {
                min_x: cx - hw,
                min_y: cy - hh,
                max_x: cx + hw,
                max_y: cy + hh,
            };
            if n > 2 {
                // One station on the left edge, one strictly inside.
                xs[1] = b.min_x;
                ys[1] = cy;
                xs[2] = cx;
                ys[2] = cy;
            }
            if n > 0 && case % 5 == 4 {
                // A zero-area box on a station.
                let s = case % n;
                b = QueryBox {
                    min_x: xs[s],
                    min_y: ys[s],
                    max_x: xs[s],
                    max_y: ys[s],
                };
            }
            let map: Vec<u32> = (0..n as u32).map(|j| 3 * j + 7).collect();
            let (lb, ub, kept, r_lo, r_hi) = reference_prune(alpha, b, &xs, &ys, &ws);
            if n > 2 && case % 5 != 4 {
                assert_eq!(ub[2], f64::INFINITY, "inside station must have an ∞ top");
                assert!(kept.contains(&1) && kept.contains(&2));
            }
            for kernel in supported_kernels() {
                for idx in [None, Some(&map[..])] {
                    let (lo, hi) =
                        prune_to_box(kernel, alpha, b, &xs, &ys, &ws, idx, &mut scratch, &mut out);
                    let name = kernel.name();
                    for j in 0..n {
                        assert_eq!(
                            scratch.lb[j].to_bits(),
                            lb[j].to_bits(),
                            "{name} lb[{j}] case {case}"
                        );
                        assert_eq!(
                            scratch.ub[j].to_bits(),
                            ub[j].to_bits(),
                            "{name} ub[{j}] case {case}"
                        );
                    }
                    let want: Vec<u32> = kept
                        .iter()
                        .map(|&j| idx.map_or(j as u32, |m| m[j]))
                        .collect();
                    assert_eq!(out.idx, want, "{name} kept set, case {case}");
                    for (c, &j) in kept.iter().enumerate() {
                        assert_eq!(
                            (out.xs[c], out.ys[c], out.ws[c]),
                            (xs[j], ys[j], ws[j]),
                            "{name} gathered columns, case {case}"
                        );
                    }
                    assert_eq!(
                        lo.to_bits(),
                        r_lo.to_bits(),
                        "{name} residual lo, case {case}"
                    );
                    assert_eq!(
                        hi.to_bits(),
                        r_hi.to_bits(),
                        "{name} residual hi, case {case}"
                    );
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
