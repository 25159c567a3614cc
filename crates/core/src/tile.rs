//! Spatially-coherent tiled batch execution.
//!
//! The per-point batch path treats a 100k-point `locate_batch` as 100k
//! independent queries: every point pays a full station scan (or its own
//! kd-tree walk). But SINR diagrams have exploitable spatial structure —
//! reception zones are fat and convex (Theorem 1 / Theorem 4.2), so
//! *nearby query points share almost all of their per-point work*. This
//! module is the batch-level amortization of that observation (the
//! regime of Aronov & Katz's batched point location): sort the batch
//! into Morton-ordered spatial tiles, compute a **shared, certified
//! candidate set** once per tile, and run the SIMD kernels over short
//! contiguous candidate columns instead of the whole network.
//!
//! ## The pipeline
//!
//! 1. **Morton ordering** — each query point is mapped to a 16-bit ×
//!    16-bit grid cell over the batch's bounding box and the cells are
//!    interleaved into a Z-order key; a stable radix sort by that key
//!    yields an index *permutation* (the input and output slices are
//!    never reordered — answers land at their original positions, so the
//!    output is positionally identical to the per-point path).
//! 2. **Per-tile candidate pruning** — consecutive runs of
//!    [`TileConfig::tile_points`] sorted points form a tile. One `O(n)`
//!    pass over the station columns computes each station's certified
//!    energy envelope over the tile's bounding box
//!    ([`crate::bounds::energy_envelope`]); stations whose envelope top
//!    is *provably dominated* (below the best envelope bottom `M`) can
//!    never be the strongest station for any point of the tile and are
//!    dropped from the per-point scan. Their interference is not
//!    dropped — it is carried as a certified residual interval
//!    `[L_R, U_R]` (the sums of the pruned envelopes).
//! 3. **Sub-tile re-pruning** — the tile's points are cut into sub-tiles
//!    of 32 consecutive Morton-ordered points. Each sub-tile re-envelopes
//!    **only the tile's candidate set `C`** over its own, smaller box
//!    and prunes `C` against its own best bottom; the newly pruned
//!    stations' sub-box envelopes are added to `[L_R, U_R]`. On sparse
//!    batches (a few points per station, so a tile spans many zones)
//!    this cuts the per-point scan from ~1200 to ~170 of 4096 stations.
//!    Both levels run one shared routine (`simd::prune_to_box`): a
//!    branch-free vector envelope pass on the engine's pinned kernel
//!    (`α = 2`; bit-identical to `energy_envelope`, `α ≠ 2` keeps the
//!    scalar `powf` envelope), a keep bitmap, and multi-accumulator
//!    residual sums.
//! 4. **Certified per-point decision** — each point scans only its
//!    sub-tile's gathered candidate columns (through the same SIMD
//!    kernels as the full scans — AVX-512/AVX2/SSE2/portable).
//!    Per-station energies are bit-identical to the full scan's by
//!    kernel contract, so the argmax (or nearest-station) choice is
//!    *exact*. The reception test is then evaluated at both ends of the
//!    residual interval: if both ends agree, the decision is certified
//!    and emitted. If they disagree (the point sits within the
//!    interval's width of the `SINR = β` boundary), the point walks
//!    down the ladder **sub-tile → tile → serial kernel**: it retries
//!    the tile-level decision (the tile's candidate columns against
//!    `[L_R, U_R]`), and only when that is inconclusive too does it
//!    **fall back to the backend's own serial kernel** — never an
//!    approximate answer.
//!
//! Steps 2–4 are one per-tile routine (`locate_tile`): the body of
//! [`locate_batch_tiled`], and of every channel Monte-Carlo trial
//! ([`crate::channel`]), which runs it per Morton tile on a trial-scaled
//! evaluator. Every certified decision of the crate — these tile
//! scans, the cell points of [`locate_in_cell`] and
//! [`crate::engine::VoronoiAssisted`]'s far-field bracket — goes through
//! one `TOTAL_MARGIN`-widened test (`certify_decision`), and the
//! `Nearest` tile scans and the cell points share one scalar candidate
//! loop.
//!
//! ## The correctness contract
//!
//! Answers are **bit-identical** to the serial per-point path of the
//! same backend, for every input ordering — pinned by the
//! permutation-invariance and tiled-vs-serial differential suites. The
//! certificates are one-sided with explicit rounding margins
//! ([`BOUND_MARGIN`], [`TOTAL_MARGIN`]), so floating-point looseness can
//! only ever cause an escalation or a fallback (a perf event), never a
//! changed answer. Each rung of the ladder is sound on its own:
//!
//! * a station pruned at either level is strictly below some kept
//!   candidate everywhere in the (sub-)box, so the argmax over the
//!   short list — and its first-index tie rule — is the argmax over
//!   the network, and under uniform power the nearest station is kept
//!   too;
//! * a station co-located with a point has an `∞` envelope top and is
//!   never pruned, so the first coincident candidate is the first
//!   coincident station;
//! * every residual is a sum of valid envelopes over a box containing
//!   the point, and every decision goes through the same
//!   `TOTAL_MARGIN`-widened test;
//! * the tile rung is the single-level decision, so the points that
//!   reach the serial kernel are exactly those the tile bracket alone
//!   cannot decide.
//!
//! Tiles whose points are not all finite fall back wholesale.
//!
//! Tiles are the work-stealing scheduler's unit, so skewed tiles
//! rebalance across cores exactly like the skewed points of
//! [`crate::engine::batch_map`]'s units do; batches below
//! [`TileConfig::min_points`] run the per-point path through
//! [`crate::engine::batch_map`].

use crate::bounds::{dist2_range_to_box, energy_envelope};
use crate::engine::steal::OutputSlots;
use crate::engine::{
    GeneralAlpha, InverseSquare, Located, PathLoss, SinrEvaluator, BATCH_TILE,
    PARALLEL_BATCH_THRESHOLD,
};
use crate::simd::{self, Columns, PruneScratch, QueryBox, SimdKernel};
use crate::station::StationId;
use sinr_algebra::KahanSum;
use sinr_geometry::Point;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Relative widening applied to each station's per-tile energy envelope
/// so it certifiably brackets the kernels' rounded energies (worst case
/// a few ulps ≈ `1e-15`; four orders of magnitude of slack).
pub const BOUND_MARGIN: f64 = 1e-12;

/// Relative widening applied to the total-energy interval before the
/// certified reception test, absorbing every summation-order difference
/// between kernels (compensated or plain, any lane count, any station
/// count the engine supports). Points whose reception margin is tighter
/// than this fall back to the serial kernel.
pub const TOTAL_MARGIN: f64 = 1e-8;

/// Below this many stations the pruned tile path is not engaged by the
/// default config: the full scan is already a few dozen nanoseconds, so
/// Morton sorting and per-tile envelopes would cost more than they save.
pub const TILED_MIN_STATIONS: usize = 128;

/// Tuning knobs of the tiled executor.
///
/// The defaults are [`BATCH_TILE`] points per tile (also the largest
/// unit [`crate::engine::batch_map`] hands a worker) and the thresholds
/// the engines ship with; benches and differential tests
/// construct custom configs to sweep the tile size or force the tiled
/// path onto small inputs.
#[derive(Debug, Clone, Copy)]
pub struct TileConfig {
    /// Query points per spatial tile (and per stolen work unit).
    pub tile_points: usize,
    /// Minimum station count for the pruned path to pay for itself.
    pub min_stations: usize,
    /// Minimum batch length; shorter batches take the engine's
    /// per-point path ([`crate::engine::batch_map`]).
    pub min_points: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            tile_points: BATCH_TILE,
            min_stations: TILED_MIN_STATIONS,
            min_points: PARALLEL_BATCH_THRESHOLD,
        }
    }
}

impl TileConfig {
    /// True when a batch of `n_points` against `n_stations` should take
    /// the pruned tiled path under this config.
    pub fn engages(&self, n_points: usize, n_stations: usize) -> bool {
        n_points >= self.min_points && n_stations >= self.min_stations
    }
}

/// How the tiled executor selects each point's candidate transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// Maximum-energy station (first index on exact energy ties) — the
    /// rule of the full scans ([`crate::engine::ExactScan`],
    /// [`crate::simd::SimdScan`]) *and* of
    /// [`crate::engine::VoronoiAssisted`]'s power-diagram dispatch on
    /// non-uniform networks (the candidate argmax over `Pᵢ · att(d²)`
    /// is exactly the weighted kd-tree's nearest-dominator rule); exact
    /// for every network. The station envelopes the executor prunes
    /// with are per-station and power-aware, so pruning stays certified
    /// under any power assignment.
    MaxEnergy,
    /// Nearest station (first index on exact squared-distance ties) —
    /// the Observation-2.2 dispatch [`crate::engine::VoronoiAssisted`]
    /// uses when the current powers are uniform. Only equivalent to
    /// `MaxEnergy` for uniform power; callers must not use it otherwise
    /// (the engines never do — `VoronoiAssisted` switches to
    /// `MaxEnergy` per batch when powers differ).
    Nearest,
}

/// Aggregate observability of one tiled run (for benches and tests —
/// the counters say nothing about answers, which are always exact).
///
/// A point of a pruned tile walks the ladder sub-tile → tile → serial
/// kernel (see the [module docs](self)): it scans its sub-tile's short
/// candidate list, is *escalated* to the tile's list when that bracket
/// is inconclusive, and *falls back* to the serial kernel when the tile
/// bracket is inconclusive too.
#[derive(Debug, Default, Clone, Copy)]
pub struct TileStats {
    /// Total query points.
    pub points: u64,
    /// Tiles processed.
    pub tiles: u64,
    /// Tiles that ran the pruned candidate path (the rest fell back
    /// wholesale: non-finite points, or pruning could not drop enough
    /// stations to pay for the gather).
    pub pruned_tiles: u64,
    /// Σ |candidate set| over pruned tiles — the tile-level set,
    /// before any sub-tile re-pruning (divide by `pruned_tiles` for
    /// the mean tile candidate count).
    pub candidate_stations: u64,
    /// Points of pruned tiles: the points that took the certified path
    /// rather than the wholesale serial fallback.
    pub certified_points: u64,
    /// Σ over certified-path points of the candidate-list lengths each
    /// one scanned: its sub-tile's list, plus the tile's list when it
    /// was escalated (divide by `certified_points` for the mean).
    pub scanned_candidates: u64,
    /// Points whose sub-tile decision was inconclusive and retried the
    /// tile-level decision.
    pub escalated_points: u64,
    /// Points whose certified decision was inconclusive at every level
    /// and re-ran the backend's serial kernel.
    pub fallback_points: u64,
}

impl TileStats {
    /// Adds every counter of `other` into `self`.
    fn add(&mut self, other: &TileStats) {
        self.points += other.points;
        self.tiles += other.tiles;
        self.pruned_tiles += other.pruned_tiles;
        self.candidate_stations += other.candidate_stations;
        self.certified_points += other.certified_points;
        self.scanned_candidates += other.scanned_candidates;
        self.escalated_points += other.escalated_points;
        self.fallback_points += other.fallback_points;
    }

    /// Mean tile-level candidate-set size over the pruned tiles (`None`
    /// when no tile took the pruned path).
    pub fn mean_candidates(&self) -> Option<f64> {
        (self.pruned_tiles > 0).then(|| self.candidate_stations as f64 / self.pruned_tiles as f64)
    }

    /// Mean number of candidates a certified-path point actually scanned
    /// (`None` when no tile took the pruned path) — what the sub-tile
    /// re-pruning buys, compared against [`Self::mean_candidates`].
    pub fn mean_scanned_candidates(&self) -> Option<f64> {
        (self.certified_points > 0)
            .then(|| self.scanned_candidates as f64 / self.certified_points as f64)
    }
}

/// Spreads the low 16 bits of `v` to the even bit positions.
fn spread16(v: u32) -> u32 {
    let mut x = v & 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// The Morton (Z-order) permutation of `points`: indices sorted by the
/// interleaved 16+16-bit grid cell over the batch bounding box, ties
/// (and non-finite points, which all map to the max key) in original
/// order — the sort is a stable two-pass radix, so the permutation is
/// deterministic for any input.
pub fn morton_order(points: &[Point]) -> Vec<u32> {
    assert!(
        points.len() <= u32::MAX as usize,
        "batches beyond u32::MAX points are unsupported"
    );
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for p in points {
        if p.x.is_finite() && p.y.is_finite() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
    }
    let scale_x = grid_scale(min_x, max_x);
    let scale_y = grid_scale(min_y, max_y);
    let mut keyed: Vec<(u32, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = if p.x.is_finite() && p.y.is_finite() {
                // `as u32` saturates, so the top grid row stays in range.
                let gx = ((p.x - min_x) * scale_x) as u32;
                let gy = ((p.y - min_y) * scale_y) as u32;
                spread16(gx.min(0xFFFF)) | (spread16(gy.min(0xFFFF)) << 1)
            } else {
                u32::MAX
            };
            (key, i as u32)
        })
        .collect();
    // Stable LSD radix sort: O(n), and stability gives the
    // deterministic original-order tie rule for free. The digit width
    // follows the batch size — two 16-bit passes amortize their 64k
    // histograms only on large batches; smaller batches take four
    // 8-bit passes so a threshold-sized call does not pay ~1 MiB of
    // histogram zeroing to sort a few thousand keys.
    let (digit_bits, shifts): (u32, &[u32]) = if keyed.len() >= 1 << 15 {
        (16, &[0, 16])
    } else {
        (8, &[0, 8, 16, 24])
    };
    let mask = (1u32 << digit_bits) - 1;
    let mut aux = vec![(0u32, 0u32); keyed.len()];
    let mut counts = vec![0usize; 1 << digit_bits];
    for &shift in shifts {
        counts.iter_mut().for_each(|c| *c = 0);
        for &(k, _) in &keyed {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        let mut pos = 0usize;
        for c in counts.iter_mut() {
            let n = *c;
            *c = pos;
            pos += n;
        }
        for &(k, i) in &keyed {
            let d = ((k >> shift) & mask) as usize;
            aux[counts[d]] = (k, i);
            counts[d] += 1;
        }
        std::mem::swap(&mut keyed, &mut aux);
    }
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Cells-per-unit for one axis of the Morton grid (0 collapses the axis
/// when the extent is degenerate or not finite).
fn grid_scale(min: f64, max: f64) -> f64 {
    let width = max - min;
    if width > 0.0 && width.is_finite() {
        65535.0 / width
    } else {
        0.0
    }
}

/// Runs `f(tile_index, &mut scratch)` over `0..num_tiles`, work-stolen
/// across the available cores through one atomic counter (inline when
/// one worker suffices). Each worker owns one `S` scratch value for the
/// whole run, so per-tile allocations amortize away.
///
/// Every tile index is claimed by exactly one worker (`fetch_add` on a
/// shared counter), in no particular order and on no particular thread:
/// `f` must not depend on either. The calling thread is one of the
/// workers — it spawns `workers − 1` helpers and runs the same claim
/// loop itself, returning once every tile has run. A panic in `f`
/// propagates to the caller after all workers stop.
///
/// This is the **one** work-stealing scheduler of the workspace:
/// [`crate::engine::batch_map`]'s parallel branch (every untiled batch),
/// both tiled executors here ([`locate_batch_tiled`],
/// [`sinr_batch_tiled`]), the channel Monte-Carlo trials, and the
/// quadtree refinement of `sinr-diagram` (one task per independent
/// subtree) run through it, so the worker-count clamp (the cached
/// available parallelism) and the `fetch_add` claim protocol (which the
/// `OutputSlots` soundness argument leans on) exist in exactly one
/// place.
pub fn steal_tiles<S: Default, F: Fn(usize, &mut S) + Sync>(num_tiles: usize, f: F) {
    let workers = crate::engine::worker_threads().min(num_tiles);
    let next = AtomicUsize::new(0);
    let claim_loop = || {
        let mut scratch = S::default();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= num_tiles {
                break;
            }
            f(t, &mut scratch);
        }
    };
    if workers <= 1 {
        claim_loop();
        return;
    }
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim_loop);
        }
        claim_loop();
    });
}

/// Query points per sub-tile: consecutive Morton-ordered points of a
/// pruned tile whose box the tile's candidate list is re-pruned over
/// (see the [module docs](self)). Smaller sub-tiles pay the re-prune
/// more often, larger ones keep more candidates; on the sparse
/// `bulk_locate` shape (4096 stations × 16384 points, 2-vCPU AVX-512
/// VM) 16 points measured within noise of 32 and 64 slightly slower.
const SUB_TILE: usize = 32;

/// Per-worker scratch of the pruned executor: the prune pass's work
/// buffers and the gathered candidate columns of the current tile and
/// sub-tile, reused across tiles.
#[derive(Default)]
pub(crate) struct Scratch {
    prune: PruneScratch,
    tile: Columns,
    sub: Columns,
}

/// The bounding box of `points[idxs]`, or `None` when some point is not
/// finite (a non-finite point poisons every envelope).
fn points_box(points: &[Point], idxs: &[u32]) -> Option<QueryBox> {
    let mut b = QueryBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };
    for &i in idxs {
        let p = points[i as usize];
        if !(p.x.is_finite() && p.y.is_finite()) {
            return None;
        }
        b.min_x = b.min_x.min(p.x);
        b.min_y = b.min_y.min(p.y);
        b.max_x = b.max_x.max(p.x);
        b.max_y = b.max_y.max(p.y);
    }
    Some(b)
}

/// The one point-level reception test, division-free: `E ≥ β·(I + N)`
/// with `I = total − E`; a non-positive `I + N` (interference underflowed
/// with no noise) means SINR `+∞`. The serial kernels decide with it at
/// their scanned total ([`SinrEvaluator::decide`]), the certified
/// decisions at an assumed total. It is (weakly) anti-monotone in
/// `total` under rounding,
/// making one-sided certification sound: reception at the interval's
/// top certifies reception at the kernel's true total, non-reception at
/// the bottom certifies silence.
#[inline]
pub(crate) fn receives_at_total(best_e: f64, total: f64, noise: f64, beta: f64) -> bool {
    let interference_plus_noise = (total - best_e) + noise;
    interference_plus_noise <= 0.0 || best_e >= beta * interference_plus_noise
}

/// The tile-pruned batch executor behind
/// [`QueryEngine::locate_batch`](crate::engine::QueryEngine::locate_batch)
/// for the scan backends: Morton tiles, each run by [`locate_tile`]
/// (per-tile certified candidate sets re-pruned per 32-point sub-tile,
/// SIMD candidate scans, and certified decisions down the sub-tile →
/// tile → serial-kernel ladder; see the [module docs](self) for the
/// pipeline and the bit-identity contract).
///
/// `fallback` must be the *serial per-point kernel of the calling
/// backend* — it is consulted verbatim for non-finite tiles, unpruned
/// tiles and uncertifiable points, which is what makes the executor's
/// answers bit-identical to that backend's serial path. `kernel` drives
/// the envelope prune passes and the candidate scans (any supported
/// kernel yields identical answers; backends pass their pinned
/// kernel). `Select::Nearest` additionally requires uniform power (the Observation-2.2 precondition — the
/// caller's contract, as for [`crate::engine::VoronoiAssisted`]).
///
/// Returns run statistics; answers are written into `out` at their
/// original positions.
///
/// # Panics
///
/// Panics if `points` and `out` have different lengths.
pub fn locate_batch_tiled<F>(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    select: Select,
    points: &[Point],
    out: &mut [Located],
    cfg: &TileConfig,
    fallback: F,
) -> TileStats
where
    F: Fn(Point) -> Located + Sync,
{
    assert_eq!(
        points.len(),
        out.len(),
        "batch_map: {} points but {} output slots",
        points.len(),
        out.len()
    );
    debug_assert!(
        select == Select::MaxEnergy || eval.is_uniform_power(),
        "Select::Nearest requires uniform power (Observation 2.2)"
    );
    let tile = cfg.tile_points.max(1);
    let order = morton_order(points);
    let slots = OutputSlots::new(out);
    let stats = Mutex::new(TileStats::default());
    steal_tiles::<Scratch, _>(order.len().div_ceil(tile), |t, scratch| {
        let idxs = &order[t * tile..((t + 1) * tile).min(order.len())];
        let mut tile_stats = TileStats::default();
        locate_tile(
            eval,
            kernel,
            select,
            points,
            idxs,
            scratch,
            &mut tile_stats,
            &fallback,
            |i, answer| slots.write(i, answer),
        );
        stats.lock().expect("no tile panicked").add(&tile_stats);
    });
    stats.into_inner().expect("no tile panicked")
}

/// One Morton tile `points[idxs]` down the ladder sub-tile → tile →
/// serial kernel (see the [module docs](self)): every point's answer is
/// passed to `emit(index, answer)` exactly once, and the tile's counters
/// are added into `stats`. The per-tile body of [`locate_batch_tiled`]
/// and of the channel Monte-Carlo trials ([`crate::channel`]), which run
/// it on a trial-scaled evaluator.
///
/// `fallback` must be the serial per-point kernel of the backend on
/// `eval`; it answers non-finite tiles, tiles whose pruning keeps nearly
/// every station, and points no certified rung can decide.
#[allow(clippy::too_many_arguments)]
pub(crate) fn locate_tile(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    select: Select,
    points: &[Point],
    idxs: &[u32],
    scratch: &mut Scratch,
    stats: &mut TileStats,
    fallback: &impl Fn(Point) -> Located,
    mut emit: impl FnMut(usize, Located),
) {
    let (xs, ys, ws) = eval.soa();
    let n = xs.len();
    let alpha = eval.alpha();
    let noise = eval.noise();
    let beta = eval.beta();
    stats.points += idxs.len() as u64;
    stats.tiles += 1;
    // Tile level: certified envelopes of every station over the tile
    // box; the candidate set C keeps the stations whose top reaches the
    // best bottom M, the rest become the residual interference interval
    // [L_R, U_R]. Non-finite tiles, and tiles whose pruning keeps
    // ~everything (it cannot pay for the gather and the certification),
    // run the serial kernel wholesale.
    let resid = points_box(points, idxs).map(|tile_box| {
        simd::prune_to_box(
            kernel,
            alpha,
            tile_box,
            xs,
            ys,
            ws,
            None,
            &mut scratch.prune,
            &mut scratch.tile,
        )
    });
    let Some((resid_lo, resid_hi)) = resid.filter(|_| scratch.tile.len() * 8 < n * 7) else {
        for &i in idxs {
            emit(i as usize, fallback(points[i as usize]));
        }
        return;
    };
    let n_c = scratch.tile.len();
    // One certified point against gathered candidate columns and the
    // residual interval of every station not among them.
    let certify = |cols: &Columns, p: Point, resid_lo: f64, resid_hi: f64| match select {
        // SIMD argmax scan of the columns: per-station energies are
        // bit-identical to the full scan's, so the argmax index is
        // exact. Coincident stations always survive pruning (their
        // envelope top is ∞), so the first coincident candidate is the
        // first coincident station of the whole scan.
        Select::MaxEnergy => {
            match simd::scan_slices(kernel, alpha, &cols.xs, &cols.ys, &cols.ws, p) {
                Err(c) => Some(Located::Reception(StationId(cols.idx[c] as usize))),
                Ok(scan) => certify_decision(
                    StationId(cols.idx[scan.best] as usize),
                    scan.best_energy,
                    scan.total,
                    resid_lo,
                    resid_hi,
                    noise,
                    beta,
                ),
            }
        }
        Select::Nearest => {
            let at = |c: usize| (cols.idx[c] as usize, cols.xs[c], cols.ys[c], cols.ws[c]);
            certify_candidates(
                alpha,
                Select::Nearest,
                cols.len(),
                at,
                p,
                resid_lo,
                resid_hi,
                noise,
                beta,
            )
        }
    };
    stats.pruned_tiles += 1;
    stats.candidate_stations += n_c as u64;
    stats.certified_points += idxs.len() as u64;
    for sub in idxs.chunks(SUB_TILE) {
        // Sub-tile level: re-prune only C over the sub-tile box; the
        // newly pruned stations' envelopes join the residual.
        let sub_box = points_box(points, sub).expect("a finite tile has finite sub-tiles");
        let (new_lo, new_hi) = simd::prune_to_box(
            kernel,
            alpha,
            sub_box,
            &scratch.tile.xs,
            &scratch.tile.ys,
            &scratch.tile.ws,
            Some(&scratch.tile.idx),
            &mut scratch.prune,
            &mut scratch.sub,
        );
        let (sub_lo, sub_hi) = (resid_lo + new_lo, resid_hi + new_hi);
        let n_s = scratch.sub.len();
        for &i in sub {
            let p = points[i as usize];
            stats.scanned_candidates += n_s as u64;
            let mut outcome = certify(&scratch.sub, p, sub_lo, sub_hi);
            // Retry with the tile-level decision. When the re-prune
            // dropped nothing that decision is the one just made (same
            // columns, residual + 0.0), so it is skipped.
            if outcome.is_none() && n_s < n_c {
                stats.escalated_points += 1;
                stats.scanned_candidates += n_c as u64;
                outcome = certify(&scratch.tile, p, resid_lo, resid_hi);
            }
            let answer = outcome.unwrap_or_else(|| {
                stats.fallback_points += 1;
                fallback(p)
            });
            emit(i as usize, answer);
        }
    }
}

/// Certified decision from the interval `[S_C + L_R, S_C + U_R]`
/// (widened by [`TOTAL_MARGIN`]) around every kernel's rounded total —
/// the one certified decision of the crate (tile scans, cell points and
/// [`crate::engine::VoronoiAssisted`]'s far-field bracket). `None` when
/// the decision sits within the interval of the `β` boundary: the
/// caller re-runs the backend's serial kernel.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn certify_decision(
    best: StationId,
    best_e: f64,
    s_c: f64,
    resid_lo: f64,
    resid_hi: f64,
    noise: f64,
    beta: f64,
) -> Option<Located> {
    let hi = (s_c + resid_hi) * (1.0 + TOTAL_MARGIN);
    let lo = (s_c + resid_lo) * (1.0 - TOTAL_MARGIN);
    if receives_at_total(best_e, hi, noise, beta) {
        Some(Located::Reception(best))
    } else if !receives_at_total(best_e, lo, noise, beta) {
        Some(Located::Silent)
    } else {
        None
    }
}

/// The scalar candidate loop of the certified decisions — the tiled
/// executor's `Nearest` mode and [`locate_in_cell`]: the exact energy
/// at `p` of every candidate `at(c) = (station, x, y, power)`,
/// `c ∈ 0..len` (ascending by station), the candidate `select` picks,
/// and the certified decision against the residual interval
/// `[resid_lo, resid_hi]` of every other station.
///
/// `MaxEnergy` keeps the first index on exact energy ties (the scan
/// kernels' argmax rule), `Nearest` the first index on exact
/// squared-distance ties (the kd-tree's documented rule); either way
/// the loop tracks one score and the candidate's position, and the
/// winner's energy is recomputed once. A point at a candidate's
/// position is received from the first such candidate — the `{sᵢ}`
/// clause — which is the first such station of the network whenever
/// every co-located station is a candidate (their envelope top is `∞`,
/// so pruning and freezing keep them).
#[inline]
#[allow(clippy::too_many_arguments)]
fn certify_candidates(
    alpha: f64,
    select: Select,
    len: usize,
    at: impl Fn(usize) -> (usize, f64, f64, f64),
    p: Point,
    resid_lo: f64,
    resid_hi: f64,
    noise: f64,
    beta: f64,
) -> Option<Located> {
    let k_general = GeneralAlpha::new(alpha);
    // The exact per-station operation sequence of every scan kernel:
    // `RN(RN(attenuation)·ψ)`.
    let energy = |x: f64, y: f64, w: f64| {
        let dx = x - p.x;
        let dy = y - p.y;
        let d2 = dx * dx + dy * dy;
        let att = if alpha == 2.0 {
            InverseSquare.attenuation(d2)
        } else {
            k_general.attenuation(d2)
        };
        (d2, att * w)
    };
    let mut sum = 0.0f64;
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for c in 0..len {
        let (j, x, y, w) = at(c);
        let (d2, e) = energy(x, y, w);
        // A co-located candidate is the strict nearest, so `Nearest`
        // finds the first one after the loop (a branch here costs the
        // tile scans ~10%). Under `MaxEnergy` an energy that overflowed
        // at a subnormal distance could outrank it, so it returns here.
        if select == Select::MaxEnergy && d2 == 0.0 {
            return Some(Located::Reception(StationId(j)));
        }
        // Plain positive sum — it only feeds the certified bounds,
        // whose `TOTAL_MARGIN` dwarfs the uncompensated rounding.
        sum += e;
        // Strictly greater: the first candidate wins ties.
        let score = match select {
            Select::MaxEnergy => e,
            Select::Nearest => -d2,
        };
        if score > best_score {
            best_score = score;
            best = c;
        }
    }
    let (j, x, y, w) = at(best);
    let (d2, best_e) = energy(x, y, w);
    if d2 == 0.0 {
        return Some(Located::Reception(StationId(j)));
    }
    certify_decision(StationId(j), best_e, sum, resid_lo, resid_hi, noise, beta)
}

// ---------------------------------------------------------------------
// Interval-certified cell evaluation
// ---------------------------------------------------------------------

/// Relative slack widening the leave-one-out interference sums of a
/// cell certificate. The sums are (at most) `n` compensated additions
/// plus the frozen chain's plain additions, so their relative rounding
/// is bounded by `n·ε ≈ 1e-12` at the engine's practical station
/// counts; `1e-11` dwarfs it while staying negligible against
/// [`TOTAL_MARGIN`].
const SUM_SLACK: f64 = 1e-11;

/// Relative envelope width below which a certified-silent station is
/// **frozen** into descendant certificates' residual sums instead of
/// being re-enveloped per descendant cell. Per-station widths
/// `hi ≤ lo·(1 + FREEZE_REL)` add up to an aggregate residual width of
/// at most `FREEZE_REL · I` over the frozen set, so descendants'
/// certified SINR intervals widen by at most that *relative* amount —
/// only cells already within ~`FREEZE_REL` of the `β` boundary can flip
/// from resolved to [`CellDecision::Mixed`], and those sit inside the
/// boundary band the refinement subdivides anyway. This is what makes a
/// root-to-leaf quadtree refinement cost `O(surviving candidates)` per
/// cell instead of `O(n)`: a station at distance `≳ 4/FREEZE_REL` cell
/// radii freezes, so far stations drop out after a few levels.
///
/// The value trades certificate cost against bracket *width*: frozen
/// widths are paid by every descendant decision — including the
/// per-point certified path ([`locate_in_cell`]), whose hit rate near
/// the `β` boundary is set directly by the accumulated frozen width
/// (a point whose reception margin is smaller than the frozen bracket
/// cannot be pinned and falls through to the batched serial kernel).
/// `0.05` keeps that uncertifiable band to a few pixels at heatmap
/// resolutions; looser values make certificates cheaper but push whole
/// pixel bands onto the `O(n)` fallback, which measures strictly worse
/// on megapixel grids.
const FREEZE_REL: f64 = 0.05;

/// Candidates per block of a cell certificate's envelope pass: one
/// block's gathered columns and envelopes fit on the stack.
const CERT_BLOCK: usize = 256;

/// A certified bracket `[lo, hi]` of one station's SINR over a cell:
/// every value [`SinrEvaluator::sinr`] returns for any point of the
/// cell (including the `0`/`+∞` co-location conventions) lies inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrInterval {
    /// Certified lower end (`≥ 0`).
    pub lo: f64,
    /// Certified upper end (`+∞` when unbounded over the cell).
    pub hi: f64,
}

impl SinrInterval {
    /// True when `v` lies inside the bracket (NaN is never inside).
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// The uniform classification a [`CellCert`] proved for its whole cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDecision {
    /// Every point of the cell locates as `Reception(i)` — the
    /// station's certified test passes everywhere in the cell *and*
    /// every other station is certified silent (which pins the argmax).
    Reception(StationId),
    /// Every point of the cell locates as `Silent`: every station's
    /// certified test fails everywhere in the cell.
    Silent,
    /// The certificate straddles a decision boundary (or the cell
    /// contains a station, or a bound degenerated): no uniform claim —
    /// subdivide or evaluate per point.
    Mixed,
}

/// One frozen layer of an ancestor chain: stations whose envelopes were
/// pinned at some ancestor cell (Arc-shared by every descendant).
#[derive(Debug)]
struct FrozenLayer {
    parent: Option<Arc<FrozenLayer>>,
    /// `(station index, energy lo, energy hi)` — all finite.
    entries: Vec<(u32, f64, f64)>,
}

/// A certified interval evaluation of one axis-aligned cell: per-station
/// energy envelopes over the cell box, the leave-one-out interference
/// brackets they imply, and the uniform reception [`CellDecision`] they
/// certify (if any).
///
/// Certificates chain: passing one as the `parent` of
/// [`QueryEngine::sinr_bounds_cell`](crate::engine::QueryEngine::sinr_bounds_cell)
/// for a **contained** child cell re-envelopes only the parent's
/// surviving candidates, while stations the parent proved silent with
/// tight envelopes are carried as a frozen residual (their ancestor-cell
/// envelopes remain valid for any sub-cell). The hierarchical raster
/// refinement in `sinr-diagram` leans on this: certificate cost tracks
/// the *local* station set, not `n`.
#[derive(Debug, Clone)]
pub struct CellCert {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    n: usize,
    decision: CellDecision,
    /// Surviving candidates `(station index, energy lo, energy hi)`,
    /// ascending by index.
    cands: Vec<(u32, f64, f64)>,
    frozen: Option<Arc<FrozenLayer>>,
    /// Plain sums of the frozen entries' envelope ends (all finite).
    frozen_lo: f64,
    frozen_hi: f64,
    /// Finite-part totals over **all** stations, and the count of
    /// infinite envelope ends excluded from them.
    sum_lo: f64,
    sum_hi: f64,
    inf_lo: u32,
    inf_hi: u32,
    noise: f64,
    beta: f64,
}

impl CellCert {
    /// The uniform classification this certificate proved.
    pub fn decision(&self) -> CellDecision {
        self.decision
    }

    /// The cell box this certificate covers: `(min, max)` corners.
    pub fn cell(&self) -> (Point, Point) {
        (
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.max_y),
        )
    }

    /// Number of surviving (non-frozen) candidate stations — the cost
    /// driver of refining this certificate into child cells.
    pub fn candidates(&self) -> usize {
        self.cands.len()
    }

    /// The reception threshold `β` this certificate's decision was
    /// certified against.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The background noise `N` folded into the certified brackets.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// The station's certified energy envelope: from the candidate list
    /// if it survived, else from the frozen ancestor chain.
    fn energy_bounds(&self, j: usize) -> (f64, f64) {
        let key = j as u32;
        if let Ok(c) = self.cands.binary_search_by_key(&key, |&(idx, _, _)| idx) {
            let (_, lo, hi) = self.cands[c];
            return (lo, hi);
        }
        let mut layer = self.frozen.as_deref();
        while let Some(l) = layer {
            if let Some(&(_, lo, hi)) = l.entries.iter().find(|&&(idx, _, _)| idx == key) {
                return (lo, hi);
            }
            layer = l.parent.as_deref();
        }
        unreachable!("station {j} is neither a candidate nor frozen")
    }

    /// Leave-one-out interference bracket for a station with energy
    /// envelope `(elo, ehi)`: totals minus the station's own ends, with
    /// infinity bookkeeping (an `∞` end elsewhere forces that side to
    /// `∞`) and [`SUM_SLACK`] widening against cancellation.
    fn interference_bounds(&self, elo: f64, ehi: f64) -> (f64, f64) {
        let inf_lo_others = self.inf_lo - u32::from(elo == f64::INFINITY);
        let lo = if inf_lo_others > 0 {
            f64::INFINITY
        } else {
            let own = if elo.is_finite() { elo } else { 0.0 };
            ((self.sum_lo - own) - SUM_SLACK * self.sum_lo).max(0.0)
        };
        let inf_hi_others = self.inf_hi - u32::from(ehi == f64::INFINITY);
        let hi = if inf_hi_others > 0 {
            f64::INFINITY
        } else {
            let own = if ehi.is_finite() { ehi } else { 0.0 };
            ((self.sum_hi - own) + SUM_SLACK * self.sum_hi).max(0.0)
        };
        (lo, hi)
    }

    /// The certified SINR bracket of `station` over the cell: every
    /// value [`SinrEvaluator::sinr`] can return for a point of the cell
    /// — including the co-location conventions (`0` at another station,
    /// `+∞` at the station itself) — lies inside.
    ///
    /// # Panics
    ///
    /// Panics if `station` is out of range.
    pub fn sinr(&self, station: StationId) -> SinrInterval {
        assert!(
            station.0 < self.n,
            "station {station} out of range ({} stations)",
            self.n
        );
        let (elo, ehi) = self.energy_bounds(station.0);
        let (i_lo, i_hi) = self.interference_bounds(elo, ehi);
        // Lower end: smallest energy over largest interference+noise.
        // NaN (∞/∞) and 0/0 collapse to the trivial 0.
        let den_hi = (i_hi + self.noise) * (1.0 + TOTAL_MARGIN);
        let mut lo = (elo / den_hi) * (1.0 - TOTAL_MARGIN);
        if lo.is_nan() || lo <= 0.0 {
            lo = 0.0;
        }
        // Upper end: a non-positive denominator lower bound means the
        // evaluator can report +∞ (its `denom ≤ 0` clause).
        let den_lo = (i_lo + self.noise) * (1.0 - TOTAL_MARGIN);
        let hi = if den_lo > 0.0 {
            let h = (ehi / den_lo) * (1.0 + TOTAL_MARGIN);
            if h.is_nan() {
                f64::INFINITY
            } else {
                h
            }
        } else {
            f64::INFINITY
        };
        SinrInterval { lo, hi }
    }
}

/// The certified reception test of one candidate over a whole cell:
/// with energy at least `lo` everywhere and interference+noise at most
/// `ipn_hi`, does the engine's division-free test pass at **every**
/// point? The slack term is scaled by the *envelope top* `hi` (not just
/// the interference) because the serial kernels derive interference as
/// `total − e`, whose rounding is relative to the total the station
/// itself can dominate.
#[inline]
fn cell_receives(lo: f64, hi: f64, others_hi: f64, noise: f64, beta: f64) -> bool {
    let ipn_hi = (others_hi + noise) + TOTAL_MARGIN * (hi + others_hi + noise);
    lo.is_finite() && (ipn_hi <= 0.0 || lo >= beta * ipn_hi)
}

/// The certified silence test: with energy at most `hi` everywhere and
/// interference+noise at least `ipn_lo`, the engine's test *fails* at
/// every point (and its `ipn ≤ 0` escape hatch certifiably cannot
/// fire). An infinite `hi` (a station inside the cell) is never
/// certifiably silent.
#[inline]
fn cell_silent(hi: f64, others_lo: f64, noise: f64, beta: f64) -> bool {
    let ipn_lo = (others_lo + noise) - TOTAL_MARGIN * (hi + others_lo + noise);
    hi.is_finite() & (ipn_lo > 0.0) & (hi < beta * ipn_lo)
}

/// The generic cell-certificate executor behind
/// [`QueryEngine::sinr_bounds_cell`](crate::engine::QueryEngine::sinr_bounds_cell):
/// per-station energy envelopes over the cell box (the same
/// [`energy_envelope`] primitive as the batch pruning and the
/// stochastic-channel trials — attenuation times power, widened by
/// [`BOUND_MARGIN`] — computed by the batch pruning's vector
/// envelope pass on `kernel`, bit-identical on every kernel),
/// leave-one-out interference brackets, and the certified
/// classification.
///
/// The classification is sound for **every** shipped backend: a
/// [`CellDecision::Reception`]/[`CellDecision::Silent`] answer is a
/// proof about the serial kernels' rounded arithmetic at every point of
/// the cell (see the per-test docs), and the scan/tree/SIMD backends
/// agree wherever such a proof exists (their summation-order differences
/// are inside [`TOTAL_MARGIN`], and a certified unique argmax is also
/// the unique nearest station under uniform power). Anything the
/// margins cannot prove comes back [`CellDecision::Mixed`] — never a
/// wrong uniform claim. Degenerate cells (non-finite corners, stations
/// inside the box, co-locations) degrade to `Mixed` through the
/// envelopes' `∞`/NaN widening.
///
/// `parent` must be a certificate of the **same evaluator** (same
/// revision) for a cell containing `[min, max]`; its surviving
/// candidates are re-enveloped over the child box while its frozen
/// residual is inherited as-is, and candidates the child proves silent
/// with relatively tight envelopes ([`FREEZE_REL`]) are frozen in turn.
pub(crate) fn cell_certificate(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    min: Point,
    max: Point,
    parent: Option<&CellCert>,
) -> CellCert {
    let (xs, ys, ws) = eval.soa();
    let n = xs.len();
    let noise = eval.noise();
    let beta = eval.beta();
    let alpha = eval.alpha();
    if let Some(p) = parent {
        debug_assert_eq!(p.n, n, "parent certificate is for a different network");
        debug_assert!(
            p.min_x <= min.x && p.min_y <= min.y && max.x <= p.max_x && max.y <= p.max_y,
            "child cell not contained in the parent certificate's cell"
        );
    }
    let finite_cell = min.x.is_finite()
        && min.y.is_finite()
        && max.x.is_finite()
        && max.y.is_finite()
        && min.x <= max.x
        && min.y <= max.y;
    // Pass 1: envelope every inherited candidate over the child box —
    // the tiled executor's envelope pass on `kernel`, bit-identical to
    // the scalar `energy_envelope` whichever kernel runs it — in blocks
    // whose gathered columns and envelopes live on the stack (a large
    // transient heap buffer per certificate costs fresh page faults
    // once the allocator returns it). A non-finite cell keeps the
    // trivial envelope `[0, ∞)`.
    let inherited = parent.map(|p| p.cands.len()).unwrap_or(n);
    let b = QueryBox {
        min_x: min.x,
        min_y: min.y,
        max_x: max.x,
        max_y: max.y,
    };
    let mut ent: Vec<(u32, f64, f64)> = Vec::with_capacity(inherited);
    let mut cand_lo = KahanSum::new();
    let mut cand_hi = KahanSum::new();
    let mut inf_lo = 0u32;
    let mut inf_hi = 0u32;
    for start in (0..inherited).step_by(CERT_BLOCK) {
        let len = CERT_BLOCK.min(inherited - start);
        let mut lb = [0.0; CERT_BLOCK];
        let mut ub = [f64::INFINITY; CERT_BLOCK];
        let (lb, ub) = (&mut lb[..len], &mut ub[..len]);
        let mut idx = [0u32; CERT_BLOCK];
        let idx = &mut idx[..len];
        match parent {
            Some(p) => {
                let block = &p.cands[start..start + len];
                idx.iter_mut().zip(block).for_each(|(i, &(j, _, _))| *i = j);
                if finite_cell {
                    let mut cols = [[0.0; CERT_BLOCK]; 3];
                    for (t, &j) in idx.iter().enumerate() {
                        let j = j as usize;
                        cols[0][t] = xs[j];
                        cols[1][t] = ys[j];
                        cols[2][t] = ws[j];
                    }
                    let [cx, cy, cw] = &cols;
                    simd::envelopes(kernel, alpha, b, &cx[..len], &cy[..len], &cw[..len], lb, ub);
                }
            }
            None => {
                idx.iter_mut()
                    .enumerate()
                    .for_each(|(t, i)| *i = (start + t) as u32);
                if finite_cell {
                    let range = start..start + len;
                    simd::envelopes(
                        kernel,
                        alpha,
                        b,
                        &xs[range.clone()],
                        &ys[range.clone()],
                        &ws[range],
                        lb,
                        ub,
                    );
                }
            }
        }
        for ((&j, &lo), &hi) in idx.iter().zip(lb.iter()).zip(ub.iter()) {
            // Any NaN source widens to the trivial envelope — the
            // station can then never be pruned, frozen, or certified,
            // only force `Mixed`.
            let (lo, hi) = if lo.is_nan() || hi.is_nan() {
                (0.0, f64::INFINITY)
            } else {
                (lo, hi)
            };
            if lo.is_finite() {
                cand_lo.add(lo);
            } else {
                inf_lo += 1;
            }
            if hi.is_finite() {
                cand_hi.add(hi);
            } else {
                inf_hi += 1;
            }
            ent.push((j, lo, hi));
        }
    }
    let (mut frozen_lo, mut frozen_hi, frozen_parent) = match parent {
        Some(p) => (p.frozen_lo, p.frozen_hi, p.frozen.clone()),
        None => (0.0, 0.0, None),
    };
    let sum_lo = frozen_lo + cand_lo.value();
    let sum_hi = frozen_hi + cand_hi.value();
    // Pass 2: classify each candidate against the others' bracket, and
    // partition tight certified-silent candidates into the frozen set.
    // Surviving candidates compact in place over `ent` (ascending order
    // is preserved, which the argmax first-index tie rules ride on);
    // the frozen minority moves out. The loop is branch-free — the
    // silent/frozen/kept outcomes follow station geometry, not index
    // order, so branches on them mispredict — with unconditional writes
    // behind the two compaction cursors and `+0.0` (an exact no-op on
    // the non-negative sums) added for non-frozen candidates.
    let others = |own: f64, inf_own: bool, inf: u32, sum: f64, slack: f64| {
        let own = if own.is_finite() { own } else { 0.0 };
        let finite = ((sum - own) + slack * sum).max(0.0);
        if inf - u32::from(inf_own) > 0 {
            f64::INFINITY
        } else {
            finite
        }
    };
    let mut new_frozen: Vec<(u32, f64, f64)> = Vec::new();
    let mut non_silent = 0usize;
    let mut first_non_silent = 0usize;
    let mut kept = 0usize;
    for i in 0..ent.len() {
        let (j, lo, hi) = ent[i];
        let others_lo = others(lo, lo == f64::INFINITY, inf_lo, sum_lo, -SUM_SLACK);
        let silent = cell_silent(hi, others_lo, noise, beta);
        let freeze = silent & (hi <= lo * (1.0 + FREEZE_REL));
        if !silent & (non_silent == 0) {
            first_non_silent = kept;
        }
        non_silent += usize::from(!silent);
        frozen_lo += if freeze { lo } else { 0.0 };
        frozen_hi += if freeze { hi } else { 0.0 };
        if freeze {
            new_frozen.push((j, lo, hi));
        }
        ent[kept] = (j, lo, hi);
        kept += usize::from(!freeze);
    }
    // The first non-silent candidate's own reception test.
    let rx = (non_silent > 0).then(|| ent[first_non_silent]);
    let rx_certified = rx.is_some_and(|(_, lo, hi)| {
        let others_hi = others(hi, hi == f64::INFINITY, inf_hi, sum_hi, SUM_SLACK);
        cell_receives(lo, hi, others_hi, noise, beta)
    });
    ent.truncate(kept);
    let cands = ent;
    // Reception needs a *unique* non-silent candidate whose own test is
    // certified: silence of every other station pins the argmax (an
    // argmax `m ≠ i` with `e_m ≥ e_i ≥ β·(I_i + N) ≥ β·(I_m + N) > e_m`
    // is a contradiction), so every backend's selection rule lands on
    // the certified station. Two certified receivers (possible for
    // `β < 1`) stay `Mixed` — the argmax is not uniform there.
    let decision = if non_silent == 0 {
        CellDecision::Silent
    } else if non_silent == 1 && rx_certified {
        let (j, _, _) = rx.expect("non_silent == 1 recorded a candidate");
        CellDecision::Reception(StationId(j as usize))
    } else {
        CellDecision::Mixed
    };
    let frozen = if new_frozen.is_empty() {
        frozen_parent
    } else {
        Some(Arc::new(FrozenLayer {
            parent: frozen_parent,
            entries: new_frozen,
        }))
    };
    CellCert {
        min_x: min.x,
        min_y: min.y,
        max_x: max.x,
        max_y: max.y,
        n,
        decision,
        cands,
        frozen,
        frozen_lo,
        frozen_hi,
        sum_lo,
        sum_hi,
        inf_lo,
        inf_hi,
        noise,
        beta,
    }
}

/// Batched point location against an ancestor [`CellCert`] — the
/// per-point counterpart of the refinement's whole-cell decisions,
/// behind
/// [`QueryEngine::locate_in_cell`](crate::engine::QueryEngine::locate_in_cell).
///
/// For each point (which must lie inside the certificate's cell), the
/// candidates' exact kernel energies at the point plus the certificate's
/// frozen residual bracket give a certified total interval, and the
/// decision follows the same one-sided tests as the tiled executor
/// (`certify_decision`). A `Some` answer is **bit-identical to the
/// backend's own `locate`** at that point; points whose decision sits
/// inside the residual interval come back `None`, and the caller keeps
/// them on its ordinary batch path (re-running a full per-point scan
/// here would cost more than the batch executor's pruned one). Cost per
/// point is `O(candidates)`: for boundary pixels of a quadtree
/// refinement the candidate list is the handful of locally competitive
/// stations, so even a modest hit rate beats full scans.
///
/// Soundness of answering from the candidates alone: every
/// non-candidate station is frozen **certified-silent** over an ancestor
/// cell containing the point. A certified reception for the candidate
/// argmax `c` pins the *global* argmax at `c` — a frozen `f` with
/// `e_f ≥ e_c` would pass the reception test whenever `c` does (the
/// test is monotone in energy at fixed total), contradicting its
/// silence certificate; the same exclusion argument as
/// [`CellDecision::Reception`]'s unique-argmax rule, and under uniform
/// power it equally pins the nearest station for `Select::Nearest`. A
/// certified failure answers `Silent` regardless of the argmax: a
/// frozen argmax fails by its own certificate, a candidate argmax by
/// this one.
///
/// # Panics
///
/// Panics if `points` and `out` have different lengths.
pub fn locate_in_cell(
    eval: &SinrEvaluator,
    select: Select,
    cert: &CellCert,
    points: &[Point],
    out: &mut [Option<Located>],
) {
    assert_eq!(
        points.len(),
        out.len(),
        "locate_in_cell: {} points but {} output slots",
        points.len(),
        out.len()
    );
    debug_assert_eq!(
        cert.n,
        eval.soa().0.len(),
        "certificate is for a different network"
    );
    debug_assert!(
        select == Select::MaxEnergy || eval.is_uniform_power(),
        "Select::Nearest requires uniform power (Observation 2.2)"
    );
    for (p, slot) in points.iter().zip(out.iter_mut()) {
        *slot = locate_in_cert(eval, select, cert, *p);
    }
}

/// One certified point location against `cert` (see
/// [`locate_in_cell`]); `None` when the margins cannot pin the decision
/// or the point lies outside the certified cell.
fn locate_in_cert(
    eval: &SinrEvaluator,
    select: Select,
    cert: &CellCert,
    p: Point,
) -> Option<Located> {
    // Outside the certified cell the envelopes say nothing.
    if !(p.x >= cert.min_x && p.x <= cert.max_x && p.y >= cert.min_y && p.y <= cert.max_y) {
        return None;
    }
    if cert.cands.is_empty() {
        // Every station is frozen certified-silent over an ancestor
        // cell containing `p`: whichever station any backend selects,
        // its test provably fails there.
        return Some(Located::Silent);
    }
    let (xs, ys, ws) = eval.soa();
    // Frozen stations are never co-located with a cell point (inside
    // an ancestor cell their envelope top is `∞` there, which
    // `cell_silent` rejects), so the first co-located candidate is the
    // full scan's first co-location.
    let at = |c: usize| {
        let j = cert.cands[c].0 as usize;
        (j, xs[j], ys[j], ws[j])
    };
    certify_candidates(
        eval.alpha(),
        select,
        cert.cands.len(),
        at,
        p,
        cert.frozen_lo,
        cert.frozen_hi,
        cert.noise,
        cert.beta,
    )
}

/// The tile-pruned `sinr_batch` executor: Morton-ordered tiles plus a
/// certified
/// **exact-zero bulk fill** — the one value-level prune that preserves
/// bit-identity. Unlike reception *decisions*, SINR *values* depend on
/// the serial kernel's exact summation, so a tile can only be skipped
/// when every per-point value is provably the same bit pattern: station
/// `i`'s rounded energy is exactly `+0.0` everywhere in the tile (its
/// envelope top is `0.0` — monotone rounded `1/d²` arithmetic, so only
/// claimed for `α = 2`) while the denominator is certifiably positive,
/// making every quotient exactly `+0.0`. All other tiles evaluate
/// `exact` per point, so answers are bit-identical to the serial path
/// for every input.
///
/// In the returned [`TileStats`], `pruned_tiles` counts bulk-filled
/// tiles (their points never ran `exact`), `fallback_points` counts
/// per-point evaluations, and the candidate counters
/// (`candidate_stations`, `certified_points`, `scanned_candidates`,
/// `escalated_points`) stay 0 (no candidate gather happens on this
/// path).
///
/// # Panics
///
/// Panics if `station` is out of range or the slice lengths differ.
pub fn sinr_batch_tiled<F>(
    eval: &SinrEvaluator,
    station: StationId,
    points: &[Point],
    out: &mut [f64],
    cfg: &TileConfig,
    exact: F,
) -> TileStats
where
    F: Fn(Point) -> f64 + Sync,
{
    assert_eq!(
        points.len(),
        out.len(),
        "batch_map: {} points but {} output slots",
        points.len(),
        out.len()
    );
    let (xs, ys, ws) = eval.soa();
    let n = xs.len();
    assert!(station.0 < n, "station {station} out of range");
    let i = station.0;
    let alpha = eval.alpha();
    let noise = eval.noise();
    let tile = cfg.tile_points.max(1);
    let order = morton_order(points);
    let slots = OutputSlots::new(out);
    let num_tiles = order.len().div_ceil(tile);
    let pruned_tiles = AtomicU64::new(0);
    let fallback_points = AtomicU64::new(0);
    steal_tiles::<(), _>(num_tiles, |t, _scratch| {
        let idxs = &order[t * tile..((t + 1) * tile).min(order.len())];
        let tile_box = points_box(points, idxs);
        // The bulk-zero certificate. Monotonicity of the rounded energy
        // in the distance holds for the division kernel (`1/d²` and the
        // product with the power are correctly rounded, hence weakly
        // monotone); `powf` makes no such promise, so `α ≠ 2` always
        // takes the per-point path.
        let bulk_zero = match tile_box {
            Some(b) if alpha == 2.0 => {
                let (d_min_i, d_max_i) =
                    dist2_range_to_box(b.min_x, b.min_y, b.max_x, b.max_y, xs[i], ys[i]);
                let (_, hi_i) =
                    energy_envelope(InverseSquare, ws[i], d_min_i, d_max_i, BOUND_MARGIN);
                // Energy is exactly +0.0 tile-wide; the quotient is
                // +0.0 iff the denominator is positive. Noise settles
                // it; otherwise some other station must have a positive
                // certified energy floor over the tile.
                hi_i == 0.0
                    && (noise > 0.0
                        || (0..n).any(|j| {
                            if j == i {
                                return false;
                            }
                            let (_, d_max) = dist2_range_to_box(
                                b.min_x, b.min_y, b.max_x, b.max_y, xs[j], ys[j],
                            );
                            let (lo, _) =
                                energy_envelope(InverseSquare, ws[j], 1.0, d_max, BOUND_MARGIN);
                            lo > 0.0
                        }))
            }
            _ => false,
        };
        if bulk_zero {
            pruned_tiles.fetch_add(1, Ordering::Relaxed);
            for &k in idxs {
                slots.write(k as usize, 0.0);
            }
            return;
        }
        fallback_points.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        // Debug builds cross-check every value against the tile's cell
        // certificate — the interval layer and the exact kernels must
        // agree. One certificate per tile, built before the loop.
        #[cfg(debug_assertions)]
        let bracket = tile_box.map(|b| {
            cell_certificate(
                eval,
                SimdKernel::Portable,
                Point::new(b.min_x, b.min_y),
                Point::new(b.max_x, b.max_y),
                None,
            )
            .sinr(station)
        });
        for &k in idxs {
            let p = points[k as usize];
            let v = exact(p);
            #[cfg(debug_assertions)]
            if let Some(iv) = bracket {
                debug_assert!(
                    iv.contains(v),
                    "sinr {v} of {station} at {p} outside certified [{}, {}]",
                    iv.lo,
                    iv.hi
                );
            }
            slots.write(k as usize, v);
        }
    });
    TileStats {
        points: points.len() as u64,
        tiles: num_tiles as u64,
        pruned_tiles: pruned_tiles.into_inner(),
        fallback_points: fallback_points.into_inner(),
        ..TileStats::default()
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use std::sync::Mutex;

    /// Every tile runs exactly once, whatever the tile count relative to
    /// the worker count; a single tile runs on the calling thread.
    #[test]
    fn every_tile_runs_exactly_once() {
        for num_tiles in [0, 1, 2, 3, 17, 1000] {
            let hits: Vec<AtomicUsize> = (0..num_tiles).map(|_| AtomicUsize::new(0)).collect();
            steal_tiles::<(), _>(num_tiles, |t, _| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{num_tiles} tiles"
            );
        }
        // A single tile runs inline on the caller.
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        steal_tiles::<(), _>(1, |_, _| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(*ran_on.lock().unwrap(), Some(caller));
    }
}

#[cfg(test)]
mod cert_tests {
    use super::*;
    use crate::network::Network;

    fn nets() -> Vec<Network> {
        vec![
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
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap(),
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(0.0, 5.0), 0.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
            Network::uniform(
                vec![Point::ORIGIN, Point::ORIGIN, Point::new(3.0, 0.0)],
                0.0,
                2.0,
            )
            .unwrap(),
        ]
    }

    /// Sample points of the closed cell `[min, max]`: corners, edge
    /// midpoints, center, and an interior 3×3 lattice.
    fn samples(min: Point, max: Point) -> Vec<Point> {
        let mut pts = Vec::new();
        for fx in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for fy in [0.0, 0.25, 0.5, 0.75, 1.0] {
                pts.push(Point::new(
                    min.x + fx * (max.x - min.x),
                    min.y + fy * (max.y - min.y),
                ));
            }
        }
        pts
    }

    fn check_cert_sound(eval: &SinrEvaluator, cert: &CellCert, min: Point, max: Point) {
        let n = eval.len();
        for p in samples(min, max) {
            let loc = eval.locate(p);
            match cert.decision() {
                CellDecision::Reception(i) => assert_eq!(
                    loc,
                    Located::Reception(i),
                    "cell [{min:?},{max:?}] certified Reception({i}) but locate({p:?}) = {loc:?}"
                ),
                CellDecision::Silent => assert_eq!(
                    loc,
                    Located::Silent,
                    "cell [{min:?},{max:?}] certified Silent but locate({p:?}) = {loc:?}"
                ),
                CellDecision::Mixed => {}
            }
            for j in 0..n {
                let v = eval.sinr(StationId(j), p);
                let iv = cert.sinr(StationId(j));
                assert!(
                    iv.contains(v),
                    "sinr {v} of station {j} at {p:?} outside certified [{}, {}] over [{min:?},{max:?}]",
                    iv.lo,
                    iv.hi
                );
            }
        }
    }

    #[test]
    fn cell_certificates_sound_on_fixture_grids() {
        for net in nets() {
            let eval = SinrEvaluator::new(&net);
            let steps = 8;
            let half = 6.0;
            let w = 2.0 * half / steps as f64;
            for r in 0..steps {
                for c in 0..steps {
                    let min = Point::new(-half + c as f64 * w, -half + r as f64 * w);
                    let max = Point::new(min.x + w, min.y + w);
                    let cert = eval.sinr_bounds_cell(min, max, None);
                    check_cert_sound(&eval, &cert, min, max);
                }
            }
        }
    }

    #[test]
    fn chained_certificates_sound_and_prune() {
        let net = crate::gen::random_uniform_network(7, 200, 40.0, 0.01, 2.0).unwrap();
        let eval = SinrEvaluator::new(&net);
        let root_min = Point::new(-40.0, -40.0);
        let root_max = Point::new(40.0, 40.0);
        let root = eval.sinr_bounds_cell(root_min, root_max, None);
        let mut min_cands = usize::MAX;
        // Three levels of quadtree refinement down one diagonal, checking
        // soundness at every level and that freezing actually bites.
        let mut min = root_min;
        let mut max = root_max;
        let mut parent = root;
        for _ in 0..5 {
            let mid = Point::new(0.5 * (min.x + max.x), 0.5 * (min.y + max.y));
            max = mid;
            min = Point::new(0.5 * (min.x + mid.x), 0.5 * (min.y + mid.y));
            let child = eval.sinr_bounds_cell(min, max, Some(&parent));
            check_cert_sound(&eval, &child, min, max);
            // Chained answers must match the unchained certificate's
            // interval soundness too (fresh envelopes, no inheritance).
            let fresh = eval.sinr_bounds_cell(min, max, None);
            check_cert_sound(&eval, &fresh, min, max);
            min_cands = min_cands.min(child.candidates());
            parent = child;
        }
        assert!(
            min_cands < 200,
            "five levels of refinement never froze a single station"
        );
    }

    /// The certificate's envelope pass runs on the engine's kernel, in
    /// stack blocks: every kernel must build the same certificate, bit
    /// for bit, down a chain of cells — and across block boundaries
    /// (`CERT_BLOCK` < n), with cells holding stations and degenerate
    /// cells included — and every candidate's envelope must be the
    /// scalar `energy_envelope` of *that* station over the cell.
    #[test]
    fn certificates_are_bit_identical_on_every_kernel() {
        let check_envelopes = |eval: &SinrEvaluator, cert: &CellCert| {
            let (xs, ys, ws) = eval.soa();
            let (min, max) = cert.cell();
            for &(j, lo, hi) in &cert.cands {
                let j = j as usize;
                let (d_min, d_max) = dist2_range_to_box(min.x, min.y, max.x, max.y, xs[j], ys[j]);
                let want = if eval.alpha() == 2.0 {
                    energy_envelope(InverseSquare, ws[j], d_min, d_max, BOUND_MARGIN)
                } else {
                    let k = GeneralAlpha::new(eval.alpha());
                    energy_envelope(k, ws[j], d_min, d_max, BOUND_MARGIN)
                };
                assert_eq!(
                    (lo.to_bits(), hi.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "station {j} over {min}–{max}"
                );
            }
        };
        let bits = |cert: &CellCert| {
            let cands: Vec<(u32, u64, u64)> = cert
                .cands
                .iter()
                .map(|&(j, lo, hi)| (j, lo.to_bits(), hi.to_bits()))
                .collect();
            let sums = [cert.frozen_lo, cert.frozen_hi, cert.sum_lo, cert.sum_hi].map(f64::to_bits);
            (cert.decision, cands, sums, cert.inf_lo, cert.inf_hi)
        };
        let kernels: Vec<SimdKernel> = SimdKernel::ALL
            .into_iter()
            .filter(|k| k.is_supported())
            .collect();
        for (seed, alpha) in [(3, 2.0), (4, 3.0)] {
            let mut net = crate::gen::random_uniform_network(seed, 700, 20.0, 0.01, 2.0).unwrap();
            if alpha != 2.0 {
                net = Network::builder()
                    .stations(net.positions().iter().copied())
                    .path_loss(alpha)
                    .background_noise(0.01)
                    .threshold(2.0)
                    .build()
                    .unwrap();
            }
            let eval = SinrEvaluator::new(&net);
            // A diagonal descent from a cell holding every station, then
            // a zero-area cell on a station.
            let mut cells = Vec::new();
            let (mut min, mut max) = (Point::new(-20.0, -20.0), Point::new(20.0, 20.0));
            for _ in 0..7 {
                cells.push((min, max));
                let mid = Point::new(0.5 * (min.x + max.x), 0.5 * (min.y + max.y));
                min = Point::new(0.5 * (min.x + mid.x), 0.5 * (min.y + mid.y));
                max = mid;
            }
            let s = net.positions()[0];
            cells.push((s, s));
            let chain = |kernel: SimdKernel| {
                let mut parent: Option<CellCert> = None;
                let mut out = Vec::new();
                for &(min, max) in &cells[..cells.len() - 1] {
                    let cert = cell_certificate(&eval, kernel, min, max, parent.as_ref());
                    out.push(bits(&cert));
                    parent = Some(cert);
                }
                let (min, max) = cells[cells.len() - 1];
                out.push(bits(&cell_certificate(&eval, kernel, min, max, None)));
                out
            };
            let mut parent: Option<CellCert> = None;
            for &(min, max) in &cells[..cells.len() - 1] {
                let cert = cell_certificate(&eval, SimdKernel::Portable, min, max, parent.as_ref());
                check_envelopes(&eval, &cert);
                parent = Some(cert);
            }
            let reference = chain(SimdKernel::Portable);
            assert!(reference[0].1.len() > CERT_BLOCK, "the root spans blocks");
            for &kernel in &kernels {
                assert!(
                    chain(kernel) == reference,
                    "α = {alpha}: {} certificates differ from the scalar pass",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn degenerate_cells_answer_mixed() {
        let net = nets().remove(0);
        let eval = SinrEvaluator::new(&net);
        // Non-finite corner.
        let cert = eval.sinr_bounds_cell(Point::new(f64::NAN, 0.0), Point::new(1.0, 1.0), None);
        assert_eq!(cert.decision(), CellDecision::Mixed);
        for j in 0..eval.len() {
            let iv = cert.sinr(StationId(j));
            assert_eq!(iv.lo, 0.0);
            assert_eq!(iv.hi, f64::INFINITY);
        }
        // A station inside the cell: its envelope top is ∞, so no
        // uniform claim survives.
        let cert = eval.sinr_bounds_cell(Point::new(-1.0, -1.0), Point::new(1.0, 1.0), None);
        assert_eq!(cert.decision(), CellDecision::Mixed);
        // Point cell exactly on a co-located pair (last fixture).
        let net = nets().pop().unwrap();
        let eval = SinrEvaluator::new(&net);
        let cert = eval.sinr_bounds_cell(Point::ORIGIN, Point::ORIGIN, None);
        assert_eq!(cert.decision(), CellDecision::Mixed);
        check_cert_sound(&eval, &cert, Point::ORIGIN, Point::ORIGIN);
    }

    #[test]
    fn sinr_batch_tiled_bulk_zero_matches_serial() {
        // One station astronomically far away: its energy rounds to
        // +0.0 everywhere near the origin, so every tile bulk-fills.
        let mut pts = vec![Point::new(1e200, 0.0)];
        for k in 0..160 {
            let a = k as f64 * std::f64::consts::FRAC_PI_8;
            pts.push(Point::new(3.0 * a.cos() + 0.01 * k as f64, 3.0 * a.sin()));
        }
        let net = Network::uniform(pts, 0.05, 2.0).unwrap();
        let eval = SinrEvaluator::new(&net);
        let far = StationId(0);
        let queries: Vec<Point> = (0..2048)
            .map(|k| {
                let x = (k % 64) as f64 * 0.1 - 3.2;
                let y = (k / 64) as f64 * 0.2 - 3.2;
                Point::new(x, y)
            })
            .collect();
        let cfg = TileConfig::default();
        let mut tiled = vec![f64::NAN; queries.len()];
        let stats = sinr_batch_tiled(&eval, far, &queries, &mut tiled, &cfg, |p| {
            eval.sinr(far, p)
        });
        assert!(stats.pruned_tiles > 0, "no tile took the bulk-zero path");
        for (k, p) in queries.iter().enumerate() {
            let serial = eval.sinr(far, *p);
            assert_eq!(
                tiled[k].to_bits(),
                serial.to_bits(),
                "tiled sinr differs from serial at {p:?}"
            );
        }
        // And a near station (never bulk-fillable) stays bit-identical
        // through the per-point fallback.
        let near = StationId(1);
        let mut tiled_near = vec![f64::NAN; queries.len()];
        sinr_batch_tiled(&eval, near, &queries, &mut tiled_near, &cfg, |p| {
            eval.sinr(near, p)
        });
        for (k, p) in queries.iter().enumerate() {
            assert_eq!(tiled_near[k].to_bits(), eval.sinr(near, *p).to_bits());
        }
    }
}
