//! The batched, SoA-backed SINR query engine.
//!
//! The scalar functions of [`crate::sinr`] are the numeric ground truth,
//! but they answer one `(station, point)` question at a time and re-derive
//! everything per call — `heard_at` is `O(n²)` per point. The
//! production-shaped query is *many points against one network*, and this
//! module is that API:
//!
//! * [`SinrEvaluator`] — a per-network precomputation: stations in
//!   structure-of-arrays layout (split `xs` / `ys` / `powers` vectors for
//!   cache-friendly scans), the reception test rewritten division-free
//!   (`E ≥ β·(I + N)` instead of `E/(I+N) ≥ β`), and the path-loss
//!   attenuation monomorphized through the sealed [`PathLoss`] strategy so
//!   the paper's `α = 2` case compiles to a single multiply-free division
//!   per station. One evaluator pass answers "who is heard at `p`" in
//!   `O(n)` — the scalar loop needs `O(n²)`.
//! * [`QueryEngine`] — the backend-independent trait: [`QueryEngine::
//!   locate`], [`QueryEngine::locate_batch`] and [`QueryEngine::
//!   sinr_batch`]. Batches whose measured work is worth a thread spawn
//!   run in parallel through [`batch_map`], a std-only work-stealing
//!   scheduler: the batch is cut into tiles and worker threads claim
//!   tiles through one atomic counter, so skewed workloads (cheap rows
//!   next to expensive rows) keep every core busy.
//! * Backends: [`ExactScan`] (one amortized SoA pass per point, exact for
//!   every network), [`SimdScan`](crate::simd::SimdScan) (the same scan
//!   explicitly vectorized — 8×f64 AVX-512 or 4×f64 AVX2 lanes when the
//!   CPU has them, with SSE2 and portable scalar fallbacks), [`VoronoiAssisted`]
//!   (weighted kd-tree dispatch — the nearest station under uniform
//!   power per Observation 2.2, the power-diagram cell otherwise — then
//!   a certified far-field interference bracket from the same tree's
//!   subtree power sums, with the exact candidate scan only as the
//!   fallback for points the bracket cannot decide; exact for every
//!   network), and the Theorem-3 `PointLocator` of `sinr-pointloc`
//!   (sublinear per query, `ε`-approximate near zone boundaries).
//!
//! The [`Located`] answer type lives here so that every backend — across
//! crates — speaks the same language; `sinr-pointloc` re-exports it.
//!
//! ## Epochs, deltas and the staleness contract
//!
//! Engines snapshot the network at construction, so any later
//! [`Network`] surgery would silently desynchronize them. The epoch
//! protocol closes that hole:
//!
//! * every [`Network`] carries a revision counter, bumped by the
//!   in-place surgery ops ([`Network::add_station`],
//!   [`Network::remove_station`], [`Network::move_station`],
//!   [`Network::set_power`]), each of which emits a
//!   [`NetworkDelta`](crate::network::NetworkDelta);
//! * every engine records the revision it reflects
//!   ([`QueryEngine::revision`]) and watches the network's counter;
//!   querying a stale engine ([`QueryEngine::is_stale`]) **panics** with
//!   a revision-mismatch message — a stale engine never answers, and in
//!   particular never answers *wrong*;
//! * [`QueryEngine::apply`] consumes one delta and patches the engine
//!   incrementally — [`ExactScan`]/[`SimdScan`](crate::simd::SimdScan)
//!   edit their SoA columns in place (`O(1)` per delta thanks to the
//!   network's swap-remove index discipline), [`VoronoiAssisted`]
//!   maintains its weighted kd-tree through tombstones and an overflow
//!   list with a rebuild-threshold heuristic (power deltas re-weight
//!   the index in place, so uniform ↔ non-uniform transitions keep the
//!   tree), and the Theorem-3
//!   `PointLocator` patches its dispatcher eagerly while rebuilding
//!   invalidated per-zone grids lazily, on first dispatch;
//! * [`QueryEngine::sync`] is the catch-up path when the deltas were
//!   lost (or came from a different network): rebuild from the current
//!   network state.
//!
//! Deltas are bound to the emitting network *instance* and must be
//! applied in order; [`SyncError`] reports skipped/foreign deltas, and
//! backends with preconditions (the Theorem-3 locator) report mutations
//! they cannot represent as [`SyncError::Unsupported`].
//!
//! ## Which backend?
//!
//! | backend | query cost | exact? | preconditions |
//! |---|---|---|---|
//! | [`ExactScan`] | `O(n)` | yes | none |
//! | [`SimdScan`](crate::simd::SimdScan) | `O(n)`, ~`lanes`× smaller constants | yes | none (runtime CPU detection, scalar fallback) |
//! | [`VoronoiAssisted`] | `O(log n)` tree walks + `O(overflow)` for certified points; `O(n)` exact-scan fallback for the ~1% near `SINR = β` | yes (bit-identical to `SimdScan` — certified answers are provably the scan's, the rest run the scan) | none (non-uniform power dispatches through the weighted tree — the power-diagram cell lookup) |
//! | `PointLocator` | `O(log n)` | `ε`-approximate near `∂Hᵢ` | uniform power, `α = 2`, `β > 1` |
//!
//! ## Execution model
//!
//! How a `locate_batch` call actually runs, in order of engagement:
//!
//! 1. **Per-point loop with a measured-work gate** ([`batch_map`]) —
//!    batches shorter than [`PARALLEL_BATCH_THRESHOLD`], and longer
//!    batches against *small* networks (fewer than
//!    [`TILED_MIN_STATIONS`](crate::tile::TILED_MIN_STATIONS)
//!    stations). The calling thread answers and times the first few
//!    points; when the projected cost of the rest is worth a scoped
//!    thread spawn (a few hundred µs — a 1024-point `VoronoiAssisted`
//!    batch on 4096 stations, not a 1024-point batch on 16 stations),
//!    the rest is cut into batch-sized tiles claimed by worker threads
//!    through one atomic counter; otherwise it finishes serially.
//! 2. **Spatially-coherent tiled execution** ([`crate::tile`]) — batches
//!    of at least [`PARALLEL_BATCH_THRESHOLD`] points against larger
//!    networks are Morton-sorted into
//!    [`BATCH_TILE`]-point spatial tiles (an index permutation; output
//!    positions never change), and each tile amortizes its work:
//!    * one `O(n)` pass computes every station's certified energy
//!      envelope over the tile's bounding box
//!      ([`crate::bounds::energy_envelope`]); stations provably
//!      dominated everywhere in the tile are **pruned** from the
//!      per-point scans, their interference carried as a certified
//!      residual interval;
//!    * each 32-point sub-tile re-prunes the tile's candidate set over
//!      its own smaller box (the newly pruned envelopes join the
//!      residual), so a point scans only the locally competitive
//!      stations;
//!    * each point scans only its gathered candidate columns (through
//!      the same SIMD kernels as the full scans), and the reception
//!      test is evaluated at both ends of the residual interval — a
//!      **pruning certificate**: agreement on both ends proves the
//!      full scan would decide identically;
//!    * **fallback conditions**: a point whose certificate is
//!      inconclusive at the sub-tile *and* the tile level (its margin to
//!      the `SINR = β` boundary is inside the interval width), any tile containing a non-finite query
//!      point, and any tile where pruning cannot drop ≳ 1/8 of the
//!      stations re-run the backend's own serial kernel, point by
//!      point — so tiled answers are **bit-identical** to the serial
//!      path for every backend and kernel (pinned by the
//!      tiled-differential and permutation-invariance suites).
//!
//!    Tiles are also the stealable work units: [`BATCH_TILE`] is the
//!    spatial tile size ([`crate::tile::TileConfig`] makes it tunable
//!    per call) and the largest unit [`batch_map`] hands out. The
//!    channel Monte-Carlo trials run this same per-tile routine on
//!    each trial's scaled powers (see [stochastic
//!    channels](self#stochastic-channels)).
//!
//! [`VoronoiAssisted`] layers **proximity dispatch** on top: each query
//! first finds the one station that could possibly be heard — the
//! nearest station under uniform power (Observation 2.2,
//! [`Select::Nearest`](crate::tile::Select::Nearest) in the tiled
//! executor), or the station maximising `Pᵢ · att(d²)` under non-uniform
//! power (the power-diagram cell of Kantor et al.,
//! [`Select::MaxEnergy`](crate::tile::Select::MaxEnergy) /
//! the weighted kd-tree's best-first `strongest` walk) — and then
//! decides that one station's reception test without an `O(n)` sum:
//! the same tree brackets the total energy `T`, far subtrees
//! contributing certified energy envelopes of their live power sums
//! (energy is linear in power), near sites and the overflow list
//! contributing exactly. A decision that holds at both ends of the
//! bracket (widened by [`TOTAL_MARGIN`](crate::tile::TOTAL_MARGIN), the
//! tiled executor's certificate) is the exact scan's decision; the rest
//! — points within the bracket's width of `SINR = β`, about 1% — run a
//! tighter pass and then the exact SIMD candidate sum. Both walks and
//! both tiled selection rules pick the same station as the full scans
//! on the same per-station energies, which is what keeps the backend
//! bit-identical to `SimdScan` per kernel.
//!
//! `sinr_batch` routes through the same certified tiled executor
//! ([`crate::tile::sinr_batch_tiled`]): Morton tiling for spatial
//! locality, plus a **bulk-zero certificate** — a tile where the
//! queried station's energy envelope tops out at exactly `0.0` while
//! noise or some other station's energy is provably positive writes
//! `+0.0` for the whole tile without per-point evaluation (exact, not
//! approximate: the inverse-square kernel's correctly-rounded
//! arithmetic makes the envelope bound itself bit-exact there). All
//! other points re-run the engine's own serial kernel, so `sinr_batch`
//! stays bit-identical to the serial path. Shorter batches run the
//! per-point kernel through [`batch_map`], like every untiled
//! `locate_batch` (the Theorem-3 `PointLocator`'s included).
//!
//! ## Interval certificates
//!
//! [`QueryEngine::sinr_bounds_cell`] extends the per-tile envelope
//! machinery into a queryable API: a [`CellCert`](crate::tile::CellCert)
//! carries, for an axis-aligned cell, a certified `[lo, hi]` SINR
//! interval per station ([`CellCert::sinr`](crate::tile::CellCert::sinr))
//! and a whole-cell decision
//! ([`CellDecision`](crate::tile::CellDecision)):
//!
//! * **`Reception(i)`** is claimed only when every *other* station is
//!   certified silent across the cell **and** station `i`'s reception
//!   test passes at the adversarial ends of the interference interval —
//!   sound for every point of the cell under the same
//!   `BOUND_MARGIN`/deep-fade widening rules as the batch certificates
//!   (the margins are one-sided: looseness degrades to `Mixed`, never
//!   to a wrong uniform claim);
//! * **`Silent`** requires every station's certified silence;
//! * **`Mixed`** is the honest "subdivide or evaluate per-point"
//!   answer, and the *only* possible answer for cells touching
//!   non-finite coordinates.
//!
//! Certificates chain: passing a parent cell's certificate for a
//! contained child re-envelopes only the parent's surviving candidates
//! (certified-silent stations freeze into a shared interference
//! residual), so quadtree refinement costs `O(candidates)` per cell,
//! not `O(n)`. [`QueryEngine::locate_in_cell`] closes the loop at
//! point scale: individual points inside a certified cell are answered
//! from the certificate's candidates alone (exact kernel energies plus
//! the frozen residual bracket, `O(candidates)` per point,
//! bit-identical to [`QueryEngine::locate`] wherever the margins pin
//! the answer), so refinement leaves only the truly ambiguous sliver
//! of points to full batched evaluation. The default implementations
//! return `None`/`false` — backends without sound envelopes (the
//! ε-approximate Theorem-3 locator) opt out, and callers degrade to
//! dense evaluation. `sinr-diagram` builds hierarchical rasterisation
//! on exactly this contract.
//!
//! ## Stochastic channels
//!
//! [`QueryEngine::reception_probability_batch`] and
//! [`QueryEngine::sinr_quantiles_batch`] layer a stochastic
//! [`ChannelModel`](crate::channel::ChannelModel) over the
//! deterministic model by **gain folding**: a channel trial is a
//! multiplicative per-station gain vector `g`, and since the received
//! energy is linear in transmit power,
//! `Eⱼ(p | gain gⱼ) = gⱼ · ψⱼ / d(sⱼ, p)^α`, evaluating a trial is
//! exactly evaluating the deterministic model on scaled powers
//! `gⱼ·ψⱼ`. The SoA position columns and the Morton point tiling are
//! built **once** per call; each trial rewrites the power column and
//! runs every tile through the tiled executor's own per-tile ladder
//! (sub-tile → tile → serial kernel) on the scaled evaluator. A station
//! with an exact-zero gain (a deep-fade draw) inside a tile box still
//! has an `∞` envelope top, so it stays a candidate and the pruning
//! certificate stays sound. Uncertain points fall back to the
//! backend's serial kernel on the scaled evaluator, so per-trial
//! answers are bit-identical to rebuilding a scaled network and
//! engine from scratch — the degenerate
//! [`ChannelModel::Deterministic`](crate::channel::ChannelModel::Deterministic)
//! channel short-circuits through the backend's own `locate_batch`
//! and returns exactly `0.0`/`1.0`.
//!
//! The **seeding contract** makes every run replayable from one
//! explicit `u64` ([`McConfig`](crate::channel::McConfig)): trial `t`
//! draws from `StdRng::seed_from_u64(seed ^ (t+1)·0x9E37_79B9_…)`,
//! composed atoms consume one shared stream in atom order, and every
//! atom draws unconditionally — so trial gains depend only on
//! `(seed, trial, model, n)`, never on thread scheduling or which
//! worker claimed the trial. The same seed over the wire
//! (`ReceptionProbBatch`) reproduces the same probabilities
//! bit-for-bit on any machine.
//!
//! ## Example
//!
//! ```
//! use sinr_core::engine::{Located, QueryEngine, VoronoiAssisted};
//! use sinr_core::{Network, StationId};
//! use sinr_geometry::Point;
//!
//! let net = Network::uniform(
//!     vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
//!     0.0,
//!     2.0,
//! ).unwrap();
//! let engine = VoronoiAssisted::new(&net);
//!
//! let queries = [Point::new(0.5, 0.0), Point::new(3.0, 0.0)];
//! let mut answers = [Located::Silent; 2];
//! engine.locate_batch(&queries, &mut answers);
//! assert_eq!(answers[0], Located::Reception(StationId(0)));
//! assert_eq!(answers[1], Located::Silent);
//! ```

use crate::channel::{ChannelError, ChannelModel, McConfig};
use crate::network::{DeltaOp, Network, NetworkDelta};
use crate::simd::SimdKernel;
use crate::station::StationId;
use sinr_algebra::KahanSum;
use sinr_geometry::Point;
use sinr_voronoi::{Dominator, EnergyBracket, KdTree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an engine could not be brought in sync with its network.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncError {
    /// The delta does not apply on top of the engine's revision — a
    /// delta was skipped, reordered, or applied twice. Recover with
    /// [`QueryEngine::sync`].
    RevisionMismatch {
        /// The revision the engine currently reflects.
        engine_revision: u64,
        /// The revision the delta applies on top of.
        delta_from: u64,
    },
    /// The delta was emitted by a different [`Network`] instance than
    /// the engine was built from.
    ForeignDelta,
    /// The backend cannot represent the requested network state (e.g.
    /// the Theorem-3 locator and a non-uniform power assignment).
    Unsupported(String),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::RevisionMismatch {
                engine_revision,
                delta_from,
            } => write!(
                f,
                "delta applies on top of revision {delta_from} but the engine \
                 is at revision {engine_revision} (delta skipped or replayed)"
            ),
            SyncError::ForeignDelta => {
                write!(f, "delta was emitted by a different network instance")
            }
            SyncError::Unsupported(msg) => write!(f, "unsupported by this backend: {msg}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// Why an engine declined to answer a query.
///
/// This is the *recoverable* face of the staleness contract: the plain
/// query entry points ([`QueryEngine::locate`] and friends) **panic** on
/// a stale engine — a stale answer could be silently wrong, and a panic
/// is the loudest possible refusal — while the fallible entry points
/// ([`QueryEngine::try_locate`], [`QueryEngine::try_locate_batch`],
/// [`QueryEngine::try_sinr_batch`]) report the same condition as this
/// typed error, which long-lived services (the `sinr-server` session
/// loop) serialize to their clients instead of dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateError {
    /// The source network has mutated past the engine's revision; catch
    /// up with [`QueryEngine::apply`] or [`QueryEngine::sync`].
    Stale {
        /// The revision the engine currently reflects.
        engine_revision: u64,
        /// The network's current revision.
        network_revision: u64,
    },
}

impl std::fmt::Display for LocateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocateError::Stale {
                engine_revision,
                network_revision,
            } => write!(
                f,
                "stale query engine: the network is at revision {network_revision} but this \
                 engine was synced at revision {engine_revision}; apply the missed \
                 NetworkDeltas or sync(&network)"
            ),
        }
    }
}

impl std::error::Error for LocateError {}

/// The engine side of the epoch protocol: the network's revision cell
/// and the revision this engine's data reflects.
#[derive(Debug, Clone)]
struct EpochTag {
    cell: Arc<AtomicU64>,
    seen: u64,
}

impl EpochTag {
    fn of(net: &Network) -> Self {
        EpochTag {
            cell: Arc::clone(net.epoch_cell()),
            seen: net.revision(),
        }
    }

    #[inline]
    fn current(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// The answer of a point-location query, shared by every backend.
///
/// The exact backends ([`ExactScan`], [`VoronoiAssisted`]) never produce
/// [`Located::Uncertain`]; the Theorem-3 approximate structure uses it for
/// points inside the `ε`-area band `Hᵢ?` along a zone boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Located {
    /// The point is inside the reception zone of this station
    /// (`p ∈ Hᵢ`; for approximate backends `p ∈ Hᵢ⁺ ⊆ Hᵢ`).
    Reception(StationId),
    /// The point lies in the uncertain boundary band `Hᵢ?` of this
    /// station (the only candidate); its true status is unresolved at the
    /// backend's resolution.
    Uncertain(StationId),
    /// The point is outside every reception zone (`p ∈ H_∅`).
    Silent,
}

impl Located {
    /// The candidate station, if any.
    pub fn station(&self) -> Option<StationId> {
        match self {
            Located::Reception(i) | Located::Uncertain(i) => Some(*i),
            Located::Silent => None,
        }
    }
}

mod sealed {
    /// Seals [`super::PathLoss`]: the algebraic machinery of this
    /// workspace (characteristic polynomials, Sturm tests) is specific to
    /// the implemented attenuation laws, so downstream crates must not add
    /// their own.
    pub trait Sealed {}
    impl Sealed for super::InverseSquare {}
    impl Sealed for super::GeneralAlpha {}
}

/// A path-loss attenuation strategy (sealed).
///
/// Monomorphizing the evaluator kernels over this trait gives the paper's
/// `α = 2` setting a dedicated fast path — [`InverseSquare`] turns
/// `dist(s, p)^{−α}` into one division by the squared distance, with no
/// `powf` and no square root anywhere in the scan.
pub trait PathLoss: sealed::Sealed + Copy + Send + Sync {
    /// The attenuation `dist^{−α}` given the *squared* distance `d2 > 0`.
    fn attenuation(self, d2: f64) -> f64;
}

/// The paper's default `α = 2`: attenuation is `1/d²`.
#[derive(Debug, Clone, Copy)]
pub struct InverseSquare;

impl PathLoss for InverseSquare {
    #[inline(always)]
    fn attenuation(self, d2: f64) -> f64 {
        1.0 / d2
    }
}

/// General `α > 0`: attenuation is `(d²)^{−α/2}`.
#[derive(Debug, Clone, Copy)]
pub struct GeneralAlpha {
    half_alpha: f64,
}

impl GeneralAlpha {
    /// The strategy for path-loss exponent `alpha`.
    pub fn new(alpha: f64) -> Self {
        GeneralAlpha {
            half_alpha: alpha / 2.0,
        }
    }
}

impl PathLoss for GeneralAlpha {
    #[inline(always)]
    fn attenuation(self, d2: f64) -> f64 {
        d2.powf(-self.half_alpha)
    }
}

/// The batch length at which the spatially-tiled executor of
/// [`crate::tile`] engages: the default of
/// [`TileConfig::min_points`](crate::tile::TileConfig::min_points). It
/// does **not** gate [`batch_map`], which decides from measured work,
/// not length.
///
/// Public so the threshold-boundary regression tests (and downstream
/// batch drivers) can pin behaviour exactly at the tiled executor's
/// crossover.
pub const PARALLEL_BATCH_THRESHOLD: usize = 2048;

/// The spatial tile size of [`crate::tile`] and the largest unit of
/// work [`batch_map`] hands a worker. Coarse enough that the shared
/// atomic counter is cold and a tile's Morton bounding box is worth
/// pruning against, fine enough that skewed workloads rebalance across
/// threads and tiles stay spatially tight. Tunable per call through
/// [`crate::tile::TileConfig::tile_points`] (this constant is its
/// default): the tiled-differential suites drive other sizes through
/// it, while the `engine_batch` bench measures only this default.
pub const BATCH_TILE: usize = 512;

/// Inputs the calling thread of [`batch_map`] answers and times before
/// deciding whether the rest of the batch is worth parallelizing.
const PROBE: usize = 32;

/// Projected serial work below which [`batch_map`] never spawns: about
/// seven times the scoped spawn + join cost of one helper thread (p50
/// ~27 µs, p99 ~60 µs on a 2-vCPU VM), so a batch that goes parallel
/// spends a small fraction of its work on the threads it starts.
const MIN_PARALLEL_WORK: Duration = Duration::from_micros(200);

/// The smallest unit of work [`batch_map`] hands a worker: enough
/// inputs that claiming it (one `fetch_add`) is noise.
const MIN_STEAL_UNIT: usize = 64;

/// The worker count of the batch schedulers: the available
/// parallelism, queried once per process. The query is not free (on
/// Linux it reads the cgroup CPU quota), and the serial batch paths
/// must not pay it on every call.
pub(crate) fn worker_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to every input, writing results into `out` — work-stolen
/// across the available cores when the batch's measured work pays for
/// the threads, serial otherwise.
///
/// This is the one per-point batch driver of the workspace: every
/// untiled [`QueryEngine::locate_batch`] (including the Theorem-3
/// locator's in `sinr-pointloc`) and the untiled
/// [`SinrEvaluator::sinr_batch`] run through it. The calling
/// thread answers the first [`PROBE`] inputs and times them; if the
/// rest, projected at that rate, costs at least [`MIN_PARALLEL_WORK`],
/// it is cut into units of `rest / (4 · workers)` inputs (clamped to
/// `[MIN_STEAL_UNIT, BATCH_TILE]`) claimed by worker threads through one
/// atomic counter, so skewed per-input costs (e.g. rasters where some
/// rows hit a fast path and others fall back to an exact scan) still
/// balance. Cheap batches never spawn, whatever their length; expensive
/// ones use every core, whatever their length.
///
/// Answers never depend on the decision: `f` is applied once per input,
/// and only the thread it runs on changes.
///
/// # Panics
///
/// Panics if `inputs` and `out` have different lengths.
pub fn batch_map<I, O, F>(inputs: &[I], out: &mut [O], f: F)
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert_eq!(
        inputs.len(),
        out.len(),
        "batch_map: {} inputs but {} output slots",
        inputs.len(),
        out.len()
    );
    if inputs.len() <= 2 * PROBE || worker_threads() <= 1 {
        serial_map(inputs, out, &f);
        return;
    }
    let (probe_in, rest_in) = inputs.split_at(PROBE);
    let (probe_out, rest_out) = out.split_at_mut(PROBE);
    let start = Instant::now();
    serial_map(probe_in, probe_out, &f);
    // Projected cost of the rest: elapsed · rest / PROBE, compared
    // without division or overflow.
    let projected = start.elapsed().as_nanos() * rest_in.len() as u128;
    if projected < MIN_PARALLEL_WORK.as_nanos() * PROBE as u128 {
        serial_map(rest_in, rest_out, &f);
        return;
    }
    let len = rest_in.len();
    let unit = len
        .div_ceil(4 * worker_threads())
        .clamp(MIN_STEAL_UNIT, BATCH_TILE);
    let slots = steal::OutputSlots::new(rest_out);
    // One scheduler for the whole crate: the same tile-claiming loop
    // drives this per-point path and the spatial executors of
    // `crate::tile`.
    crate::tile::steal_tiles::<(), _>(len.div_ceil(unit), |tile, _scratch| {
        let start = tile * unit;
        let end = (start + unit).min(len);
        for (i, p) in rest_in[start..end].iter().enumerate() {
            // Tiles are claimed exactly once (fetch_add), so every
            // index is written by exactly one worker.
            slots.write(start + i, f(p));
        }
    });
}

/// The serial loop of [`batch_map`].
fn serial_map<I, O, F: Fn(&I) -> O>(inputs: &[I], out: &mut [O], f: &F) {
    for (p, slot) in inputs.iter().zip(out.iter_mut()) {
        *slot = f(p);
    }
}

/// The one unsafe corner of the scheduler: a `Send + Sync` handle to the
/// output slice that lets workers write disjoint slots concurrently.
#[allow(unsafe_code)]
pub(crate) mod steal {
    /// Shared view of `&mut [O]` for the work-stealing workers.
    ///
    /// Soundness: the handle is created from an exclusive borrow that
    /// outlives the thread scope, every index is written by exactly one
    /// worker (contiguous tiles are claimed via `fetch_add`, and the
    /// Morton-permuted tiles of [`crate::tile`] own disjoint index sets
    /// because the order is a permutation), and `write` bounds-checks
    /// the index. Writes go through `&mut`-style assignment so the
    /// previous value is dropped on the writing thread (hence
    /// `O: Send`).
    pub(crate) struct OutputSlots<O> {
        ptr: *mut O,
        len: usize,
    }

    // SAFETY: see the struct docs — slot ownership is partitioned by the
    // tile counter, so no two threads touch the same index.
    unsafe impl<O: Send> Send for OutputSlots<O> {}
    unsafe impl<O: Send> Sync for OutputSlots<O> {}

    impl<O> OutputSlots<O> {
        pub(crate) fn new(out: &mut [O]) -> Self {
            OutputSlots {
                ptr: out.as_mut_ptr(),
                len: out.len(),
            }
        }

        /// Writes `value` into slot `i`, dropping the previous value.
        #[inline]
        pub(crate) fn write(&self, i: usize, value: O) {
            assert!(i < self.len, "output slot {i} out of bounds ({})", self.len);
            // SAFETY: `i` is in bounds (asserted) and, per the tile
            // protocol, no other thread reads or writes this slot.
            unsafe { *self.ptr.add(i) = value }
        }
    }
}

/// One station scan: the quantities every reception decision needs.
///
/// Produced by the scalar kernels here and by the vectorized kernels of
/// [`crate::simd`]; consumed by [`SinrEvaluator::decide`].
pub(crate) struct Scan {
    /// Total energy `E(S, p)` (compensated sum).
    pub(crate) total: f64,
    /// Index of the maximum-energy station (first on ties).
    pub(crate) best: usize,
    /// Its energy.
    pub(crate) best_energy: f64,
}

/// The SoA-backed per-network evaluator: build once, query many.
///
/// Station coordinates and powers are split into `xs` / `ys` / `powers`
/// vectors so the per-point scan is three linear streams, and the
/// reception test is evaluated division-free (`E ≥ β·(I + N)`).
///
/// The key algebraic fact making one pass sufficient: with
/// `T = E(S, p)` the total energy, every station's SINR is
/// `E(sᵢ,p) / (T − E(sᵢ,p) + N)`, which is *strictly increasing* in
/// `E(sᵢ,p)`. The maximum-energy station is therefore the maximum-SINR
/// station for **any** power assignment and any `β` — so `locate` needs
/// one scan (total + argmax), not `n` interference sums.
#[derive(Debug, Clone)]
pub struct SinrEvaluator {
    xs: Vec<f64>,
    ys: Vec<f64>,
    powers: Vec<f64>,
    uniform: bool,
    noise: f64,
    beta: f64,
    alpha: f64,
    epoch: EpochTag,
}

impl SinrEvaluator {
    /// Builds the evaluator for a network (an `O(n)` copy).
    pub fn new(net: &Network) -> Self {
        let n = net.len();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for p in net.positions() {
            xs.push(p.x);
            ys.push(p.y);
        }
        let powers = net.ids().map(|i| net.power(i)).collect();
        SinrEvaluator {
            xs,
            ys,
            powers,
            uniform: net.is_uniform_power(),
            noise: net.noise(),
            beta: net.beta(),
            alpha: net.alpha(),
            epoch: EpochTag::of(net),
        }
    }

    /// The network revision this evaluator's data reflects.
    pub fn revision(&self) -> u64 {
        self.epoch.seen
    }

    /// True when the source network has mutated past this evaluator.
    pub fn is_stale(&self) -> bool {
        self.epoch.current() != self.epoch.seen
    }

    /// The staleness check in fallible form: `Ok(())` when this
    /// evaluator still reflects the source network, the
    /// [`LocateError::Stale`] describing the revision gap otherwise.
    ///
    /// Every backend's [`QueryEngine::freshness`] delegates here.
    #[inline]
    pub fn freshness(&self) -> Result<(), LocateError> {
        let now = self.epoch.current();
        if now == self.epoch.seen {
            Ok(())
        } else {
            Err(LocateError::Stale {
                engine_revision: self.epoch.seen,
                network_revision: now,
            })
        }
    }

    /// Enforces the staleness contract on every query entry point.
    ///
    /// # Panics
    ///
    /// Panics when the source network has mutated past this engine's
    /// revision — a stale engine must never answer (its answer could be
    /// silently wrong). Catch up with
    /// [`apply`](SinrEvaluator::apply)/[`sync`](SinrEvaluator::sync).
    /// The recoverable form of the same check is
    /// [`SinrEvaluator::freshness`].
    #[inline]
    pub fn assert_fresh(&self) {
        if let Err(e) = self.freshness() {
            panic!("{e}");
        }
    }

    /// Patches the evaluator in place with one [`NetworkDelta`] — `O(1)`
    /// column surgery instead of the `O(n)` rebuild of
    /// [`SinrEvaluator::new`].
    ///
    /// # Errors
    ///
    /// [`SyncError::ForeignDelta`] when the delta was emitted by a
    /// different network; [`SyncError::RevisionMismatch`] when a delta
    /// was skipped or replayed. The evaluator is untouched on error.
    pub fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        if !delta.is_from(&self.epoch.cell) {
            return Err(SyncError::ForeignDelta);
        }
        if delta.from_revision() != self.epoch.seen {
            return Err(SyncError::RevisionMismatch {
                engine_revision: self.epoch.seen,
                delta_from: delta.from_revision(),
            });
        }
        match delta.op() {
            DeltaOp::Add {
                position, power, ..
            } => {
                self.xs.push(position.x);
                self.ys.push(position.y);
                self.powers.push(*power);
            }
            DeltaOp::Remove { id, .. } => {
                self.xs.swap_remove(id.0);
                self.ys.swap_remove(id.0);
                self.powers.swap_remove(id.0);
            }
            DeltaOp::Move { id, to, .. } => {
                self.xs[id.0] = to.x;
                self.ys[id.0] = to.y;
            }
            DeltaOp::SetPower { id, to, .. } => {
                self.powers[id.0] = *to;
            }
        }
        self.uniform = delta.uniform_after();
        self.epoch.seen = delta.to_revision();
        Ok(())
    }

    /// Rebuilds from the network's current state — the catch-up path
    /// when the deltas were lost, or when retargeting the evaluator at a
    /// different network.
    pub fn sync(&mut self, net: &Network) {
        *self = SinrEvaluator::new(net);
    }

    /// Detaches the evaluator from its source network's epoch cell,
    /// pinning it **fresh forever** at its current revision: later
    /// mutations of the source network no longer flip it stale (and its
    /// deltas no longer apply — [`SinrEvaluator::apply`] refuses them as
    /// [`SyncError::ForeignDelta`]). A frozen evaluator is an immutable
    /// snapshot of the revision it answers for; this is the primitive
    /// behind [`crate::snapshot`]'s shared engine snapshots.
    pub fn freeze(&mut self) {
        self.epoch = EpochTag {
            cell: Arc::new(AtomicU64::new(self.epoch.seen)),
            seen: self.epoch.seen,
        };
    }

    /// Overwrites the power column with `base[j] · gains[j]` — the
    /// gain-folding step of the stochastic channel layer
    /// ([`crate::channel`]): a channel trial is the deterministic model
    /// on the scaled powers, so only this column changes between trials
    /// while `xs`/`ys` (and everything derived from them) are reused.
    /// The uniform-power flag is recomputed, keeping the
    /// Observation-2.2 dispatch contract honest on scaled clones.
    pub(crate) fn set_scaled_powers(&mut self, base: &[f64], gains: &[f64]) {
        debug_assert_eq!(base.len(), self.powers.len());
        debug_assert_eq!(gains.len(), self.powers.len());
        for ((w, &b), &g) in self.powers.iter_mut().zip(base).zip(gains) {
            *w = b * g;
        }
        self.uniform = self.powers.iter().all(|&w| w == 1.0);
    }

    /// The station positions as points, in current index order.
    pub(crate) fn position_points(&self) -> Vec<Point> {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(&x, &y)| Point::new(x, y))
            .collect()
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the evaluator covers no stations (never for one built
    /// from a [`Network`], which has `n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The reception threshold `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The background noise `N`.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// The path-loss exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// True when every station transmits with power 1.
    pub fn is_uniform_power(&self) -> bool {
        self.uniform
    }

    /// The position of station `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: StationId) -> Point {
        Point::new(self.xs[i.0], self.ys[i.0])
    }

    /// Dispatches `f` with the monomorphized path-loss strategy — `α = 2`
    /// networks take the [`InverseSquare`] fast path.
    #[inline]
    fn with_kernel<T>(&self, f: impl FnOnce(&Self, DynKernel) -> T) -> T {
        if self.alpha == 2.0 {
            f(self, DynKernel::Square(InverseSquare))
        } else {
            f(self, DynKernel::General(GeneralAlpha::new(self.alpha)))
        }
    }

    /// One SoA pass: total energy plus the maximum-energy station.
    /// Returns `Err(j)` when `p` coincides with station `j` (first such
    /// index — reception is then decided by the `{sᵢ}` zone clause).
    #[inline]
    fn scan<K: PathLoss>(&self, k: K, p: Point) -> Result<Scan, usize> {
        let mut acc = KahanSum::new();
        let mut best = 0usize;
        let mut best_energy = f64::NEG_INFINITY;
        for j in 0..self.xs.len() {
            let dx = self.xs[j] - p.x;
            let dy = self.ys[j] - p.y;
            let d2 = dx * dx + dy * dy;
            if d2 == 0.0 {
                return Err(j);
            }
            let e = k.attenuation(d2) * self.powers[j];
            acc.add(e);
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

    /// The station arrays in structure-of-arrays layout:
    /// `(xs, ys, powers)` — the streams the vectorized kernels of
    /// [`crate::simd`] consume.
    pub(crate) fn soa(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.xs, &self.ys, &self.powers)
    }

    /// Turns a completed [`Scan`] (or a coincident-station index) into
    /// the reception decision — shared by the scalar kernels here and the
    /// vectorized kernels of [`crate::simd`].
    #[inline]
    pub(crate) fn decide(&self, scan: Result<Scan, usize>) -> Located {
        self.decide_at(scan.map(|s| (s.best, s.best_energy, s.total)))
    }

    #[inline]
    fn locate_with<K: PathLoss>(&self, k: K, p: Point) -> Located {
        self.decide(self.scan(k, p))
    }

    /// The scalar per-point kernel without the freshness check — the
    /// serial ground truth the tiled executor ([`crate::tile`]) falls
    /// back to per point (batch entry points assert freshness once).
    #[inline]
    pub(crate) fn locate_scalar(&self, p: Point) -> Located {
        self.with_kernel(|ev, k| match k {
            DynKernel::Square(k) => ev.locate_with(k, p),
            DynKernel::General(k) => ev.locate_with(k, p),
        })
    }

    /// Decides reception for the single candidate station `cand` (the
    /// [`VoronoiAssisted`] path — `cand` must be the maximum-energy
    /// station) from a candidate scan `(e_cand, total)` as produced by
    /// [`crate::simd::candidate_scan`]; `Err(j)` is a point coinciding
    /// with station `j`.
    #[inline]
    pub(crate) fn decide_candidate(&self, cand: usize, scan: Result<(f64, f64), usize>) -> Located {
        self.decide_at(scan.map(|(e_cand, total)| (cand, e_cand, total)))
    }

    /// The exact reception decision for the maximum-energy station
    /// `(index, energy, total)`: the division-free test
    /// [`receives_at_total`](crate::tile::receives_at_total) at the
    /// scanned total. At a station's own position (`Err(j)`) reception
    /// holds by the `{sᵢ}` clause; for co-located stations the scalar
    /// ground truth resolves to the first index, and `Err` carries
    /// exactly that.
    #[inline]
    fn decide_at(&self, scan: Result<(usize, f64, f64), usize>) -> Located {
        match scan {
            Err(j) => Located::Reception(StationId(j)),
            Ok((best, e, total))
                if crate::tile::receives_at_total(e, total, self.noise, self.beta) =>
            {
                Located::Reception(StationId(best))
            }
            Ok(_) => Located::Silent,
        }
    }

    /// SINR of station `i` at `p`, matching [`crate::sinr::sinr`]'s
    /// conventions for points coinciding with stations.
    ///
    /// Unlike the `locate` kernels, the interference is summed directly
    /// over `j ≠ i` rather than derived as `total − eᵢ`: close to `sᵢ`
    /// the energy dominates the total and the subtraction would cancel
    /// catastrophically. (The `locate` decision is immune — cancellation
    /// is only severe when `eᵢ ≫ I`, which is far from the `β`
    /// boundary — but reported SINR values must be accurate everywhere.)
    #[inline]
    fn sinr_with<K: PathLoss>(&self, k: K, i: usize, p: Point) -> f64 {
        let mut acc = KahanSum::new();
        let mut e_i = 0.0;
        for j in 0..self.xs.len() {
            let dx = self.xs[j] - p.x;
            let dy = self.ys[j] - p.y;
            let d2 = dx * dx + dy * dy;
            if d2 == 0.0 {
                // `p` is at station `j`. At `sᵢ` itself the SINR is +∞
                // unless an interferer is co-located (then 0); at another
                // station the interference is +∞, so the SINR is 0.
                if j != i && (self.xs[j] != self.xs[i] || self.ys[j] != self.ys[i]) {
                    return 0.0;
                }
                let colocated = (0..self.xs.len())
                    .any(|m| m != i && self.xs[m] == self.xs[i] && self.ys[m] == self.ys[i]);
                return if colocated { 0.0 } else { f64::INFINITY };
            }
            let e = k.attenuation(d2) * self.powers[j];
            if j == i {
                e_i = e;
            } else {
                acc.add(e);
            }
        }
        let denom = acc.value() + self.noise;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            e_i / denom
        }
    }

    /// Who (if anyone) is heard at `p` — the `O(n)` single-pass answer,
    /// equivalent to the scalar [`crate::sinr::heard_at`].
    ///
    /// # Panics
    ///
    /// Panics if the source network has mutated past this engine (see
    /// [`SinrEvaluator::assert_fresh`]).
    pub fn locate(&self, p: Point) -> Located {
        self.assert_fresh();
        self.locate_scalar(p)
    }

    /// The SINR of station `i` at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sinr(&self, i: StationId, p: Point) -> f64 {
        self.assert_fresh();
        assert!(i.0 < self.len(), "station {i} out of range");
        self.sinr_scalar(i.0, p)
    }

    /// The per-point SINR kernel without the freshness and range checks.
    #[inline]
    fn sinr_scalar(&self, i: usize, p: Point) -> f64 {
        self.with_kernel(|ev, k| match k {
            DynKernel::Square(k) => ev.sinr_with(k, i, p),
            DynKernel::General(k) => ev.sinr_with(k, i, p),
        })
    }

    /// Batched [`SinrEvaluator::locate`]: answers are written into `out`.
    /// Large batches against large networks run through the
    /// spatially-coherent tiled executor of [`crate::tile`] (Morton
    /// tiles, certified candidate pruning, serial-kernel fallback —
    /// bit-identical answers); everything else takes the per-point
    /// work-stealing path. See the module-level [execution
    /// model](self#execution-model).
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths.
    pub fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        self.assert_fresh();
        let cfg = crate::tile::TileConfig::default();
        if cfg.engages(points.len(), self.len()) {
            crate::tile::locate_batch_tiled(
                self,
                crate::simd::SimdKernel::Portable,
                crate::tile::Select::MaxEnergy,
                points,
                out,
                &cfg,
                |p| self.locate_scalar(p),
            );
            return;
        }
        batch_map(points, out, |p| self.locate_scalar(*p));
    }

    /// Batched [`SinrEvaluator::sinr`] for one station across many
    /// points, through [`batch_map`]. Batches that clear [`TileConfig`](crate::tile::TileConfig)'s
    /// engagement thresholds run the certified tiled executor
    /// ([`crate::tile::sinr_batch_tiled`]): tiles whose value is
    /// provably `+0.0` everywhere are bulk-filled, every other point
    /// runs the unchanged per-point kernel — so values stay
    /// bit-identical to serial [`SinrEvaluator::sinr`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice lengths differ.
    pub fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.assert_fresh();
        assert!(i.0 < self.len(), "station {i} out of range");
        let cfg = crate::tile::TileConfig::default();
        let exact = |p| self.sinr_scalar(i.0, p);
        if cfg.engages(points.len(), self.len()) {
            crate::tile::sinr_batch_tiled(self, i, points, out, &cfg, exact);
        } else {
            batch_map(points, out, |p| exact(*p));
        }
    }

    /// Interval-certified evaluation of the axis-aligned cell
    /// `[min, max]`: per-station energy envelopes, leave-one-out
    /// interference brackets, certified SINR intervals
    /// ([`CellCert::sinr`](crate::tile::CellCert::sinr)) and — when the
    /// margins allow — a uniform reception
    /// [`CellDecision`](crate::tile::CellDecision) for the whole cell.
    ///
    /// Pass a certificate of a **containing** cell as `parent` to
    /// re-envelope only its surviving candidates (the refinement
    /// contract; see [`crate::tile`]). The envelopes run on the scalar
    /// [`SimdKernel::Portable`] pass; [`SimdScan`](crate::simd::SimdScan)
    /// and [`VoronoiAssisted`] run the same certificate on their pinned
    /// kernel — bit-identical, only faster.
    ///
    /// # Panics
    ///
    /// Panics if the engine is stale.
    pub fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> crate::tile::CellCert {
        self.assert_fresh();
        crate::tile::cell_certificate(self, SimdKernel::Portable, min, max, parent)
    }

    /// Certified batched location against an ancestor cell certificate
    /// — the evaluator-level worker behind
    /// [`QueryEngine::locate_in_cell`]: candidate-only certified
    /// decisions ([`crate::tile::locate_in_cell`]); points the margins
    /// cannot pin come back `None` for the caller's batch path.
    ///
    /// # Panics
    ///
    /// Panics if the engine is stale or the slice lengths differ.
    pub fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) {
        self.assert_fresh();
        crate::tile::locate_in_cell(self, crate::tile::Select::MaxEnergy, cert, points, out);
    }
}

/// Runtime kernel choice, resolved once per call (not once per point).
#[derive(Clone, Copy)]
enum DynKernel {
    Square(InverseSquare),
    General(GeneralAlpha),
}

/// The backend-independent query interface: one network, many points.
///
/// Implementations: [`ExactScan`], [`VoronoiAssisted`] (this crate) and
/// the Theorem-3 `PointLocator` (`sinr-pointloc`). All three agree with
/// the scalar ground truth [`crate::sinr::heard_at`] wherever they answer
/// definitely; only approximate backends may answer
/// [`Located::Uncertain`].
pub trait QueryEngine {
    /// Who (if anyone) is heard at `p`?
    fn locate(&self, p: Point) -> Located;

    /// Batched [`QueryEngine::locate`]: `out[k]` receives the answer for
    /// `points[k]`.
    ///
    /// The default implementation is a serial loop; the provided backends
    /// override it with the work-stealing [`batch_map`] scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths.
    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        assert_eq!(
            points.len(),
            out.len(),
            "locate_batch: {} points but {} output slots",
            points.len(),
            out.len()
        );
        for (p, slot) in points.iter().zip(out.iter_mut()) {
            *slot = self.locate(*p);
        }
    }

    /// The SINR of station `i` at each point, written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice lengths differ.
    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]);

    // --- The dynamic path (epochs and deltas) ----------------------------

    /// The staleness contract in fallible form: `Ok(())` when the engine
    /// still reflects its source network, [`LocateError::Stale`] (with
    /// both revisions) otherwise.
    ///
    /// The plain query methods *panic* on staleness; the `try_*` methods
    /// route through this check and return the error instead — the shape
    /// a long-lived service needs to serialize the condition rather than
    /// die. Implementations delegate to [`SinrEvaluator::freshness`].
    fn freshness(&self) -> Result<(), LocateError>;

    /// Fallible [`QueryEngine::locate`]: refuses a stale engine with a
    /// typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`LocateError::Stale`] when the source network has mutated past
    /// this engine.
    fn try_locate(&self, p: Point) -> Result<Located, LocateError> {
        self.freshness()?;
        Ok(self.locate(p))
    }

    /// Fallible [`QueryEngine::locate_batch`].
    ///
    /// # Errors
    ///
    /// [`LocateError::Stale`] when the source network has mutated past
    /// this engine; `out` is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths.
    fn try_locate_batch(&self, points: &[Point], out: &mut [Located]) -> Result<(), LocateError> {
        self.freshness()?;
        self.locate_batch(points, out);
        Ok(())
    }

    /// Fallible [`QueryEngine::sinr_batch`].
    ///
    /// # Errors
    ///
    /// [`LocateError::Stale`] when the source network has mutated past
    /// this engine; `out` is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice lengths differ.
    fn try_sinr_batch(
        &self,
        i: StationId,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), LocateError> {
        self.freshness()?;
        self.sinr_batch(i, points, out);
        Ok(())
    }

    // --- Interval certificates ([`crate::tile`]) -------------------------

    /// Interval-certified evaluation of one axis-aligned cell: a
    /// [`CellCert`](crate::tile::CellCert) bracketing every station's
    /// SINR over `[min, max]` and, when the certified brackets clear the
    /// margins, a uniform [`CellDecision`](crate::tile::CellDecision)
    /// that is **sound for this backend's own `locate`** at every point
    /// of the cell. Certificates chain: pass a containing cell's
    /// certificate as `parent` so only its surviving candidate stations
    /// are re-enveloped (the quadtree-refinement contract).
    ///
    /// The default declines with `None` — backends that cannot tie the
    /// envelope arithmetic to their answer path (approximate locators)
    /// keep it, and consumers must fall back to per-point evaluation.
    /// The exact backends override it via the generic executor.
    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        let _ = (min, max, parent);
        None
    }

    /// Certified per-point location against an ancestor cell
    /// certificate: for each point (all of which must lie inside
    /// `cert`'s cell), writes `Some` of this backend's own
    /// [`QueryEngine::locate`] answer when the certificate's surviving
    /// candidates plus its frozen residual bracket pin the decision
    /// ([`crate::tile::locate_in_cell`] — `O(candidates)` instead of a
    /// full scan), `None` when they cannot — those points belong on
    /// [`QueryEngine::locate_batch`]. Returns `true` when the backend
    /// supports the path at all. Every `Some` is bit-identical to
    /// `locate_batch` on the same point. This is how the quadtree
    /// rasteriser keeps boundary pixels cheap: their spatial scatter
    /// defeats batch-level tile pruning, but the refinement already
    /// holds a tight certificate for each one.
    ///
    /// The default declines with `false` (`out` untouched) — paired
    /// with [`QueryEngine::sinr_bounds_cell`]'s default, so backends
    /// without certificates route consumers back to
    /// [`QueryEngine::locate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths (like every
    /// batched method).
    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        let _ = (cert, points, out);
        false
    }

    // --- Stochastic channels ([`crate::channel`]) ------------------------

    /// Monte-Carlo reception probability under a stochastic channel:
    /// `out[k]` receives the fraction of `mc.trials` seeded channel
    /// draws ([`ChannelModel::gains_for_trial`]) in which `points[k]`
    /// receives *some* station. Identity channels answer exactly `0.0` /
    /// `1.0`, bit-identical to [`QueryEngine::locate_batch`] (the
    /// degenerate-channel contract); see [`crate::channel`] for the
    /// gain-folding construction and the seeding contract.
    ///
    /// The default implementation declines with
    /// [`ChannelError::Unsupported`] — backends whose structures assume
    /// the deterministic power assignment (the Theorem-3 locator) keep
    /// it.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Stale`] on a stale engine (`out` untouched),
    /// [`ChannelError::InvalidChannel`] for a malformed model or trial
    /// count, [`ChannelError::Unsupported`] from backends without the
    /// stochastic path.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths.
    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        let _ = (model, mc, points, out);
        Err(ChannelError::Unsupported(
            "this backend does not implement stochastic channels",
        ))
    }

    /// Monte-Carlo SINR distribution of station `i`: for each point, the
    /// requested `quantiles` (each in `[0, 1]`, nearest-rank over the
    /// `mc.trials` sampled SINR values) are written row-major into `out`
    /// (`out[k * quantiles.len() + q]` is quantile `q` of point `k`).
    /// Per-trial values are bit-identical to
    /// [`QueryEngine::sinr_batch`] on the gain-scaled network.
    ///
    /// The default implementation declines with
    /// [`ChannelError::Unsupported`].
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::reception_probability_batch`], plus
    /// [`ChannelError::InvalidChannel`] for quantiles outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out` is not
    /// `points.len() × quantiles.len()` long.
    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        let _ = (model, mc, i, points, quantiles, out);
        Err(ChannelError::Unsupported(
            "this backend does not implement stochastic channels",
        ))
    }

    /// The network revision this engine currently answers for.
    fn revision(&self) -> u64;

    /// True when the source network has mutated past this engine —
    /// queries will panic until [`QueryEngine::apply`] catches up on the
    /// missed deltas or [`QueryEngine::sync`] rebuilds.
    fn is_stale(&self) -> bool;

    /// Applies one [`NetworkDelta`] incrementally, avoiding a rebuild.
    ///
    /// Deltas must be applied in emission order with none skipped; the
    /// engine is unchanged on error.
    ///
    /// # Errors
    ///
    /// * [`SyncError::ForeignDelta`] — the delta came from a different
    ///   network instance;
    /// * [`SyncError::RevisionMismatch`] — a delta was skipped or
    ///   replayed (recover with [`QueryEngine::sync`]);
    /// * [`SyncError::Unsupported`] — the backend cannot represent the
    ///   post-delta network (e.g. the Theorem-3 locator's uniform-power
    ///   precondition).
    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError>;

    /// Rebuilds the engine from the network's current state — the
    /// catch-up path when deltas were lost, and the only way to retarget
    /// an engine at a different network.
    ///
    /// # Errors
    ///
    /// [`SyncError::Unsupported`] when the backend's preconditions do
    /// not hold for `net`.
    fn sync(&mut self, net: &Network) -> Result<(), SyncError>;

    /// Detaches the engine from its source network, pinning it **fresh
    /// forever** at its current revision: later mutations of the source
    /// network no longer flip it stale, and its deltas no longer apply
    /// ([`SyncError::ForeignDelta`]). A frozen engine is an immutable
    /// snapshot of the revision it answers for — the primitive behind
    /// the RCU-style shared snapshots of [`crate::snapshot`] (a *live*
    /// clone still shares the source's epoch cell and would go stale
    /// mid-batch at the next mutation; freezing the clone is what makes
    /// it safely shareable).
    ///
    /// The default is a no-op, which is only correct for engines whose
    /// freshness never changes (e.g. test doubles without an epoch tag);
    /// every epoch-tracking backend overrides it via
    /// [`SinrEvaluator::freeze`].
    fn freeze(&mut self) {}
}

/// The exact linear-scan backend: one amortized SoA pass per point.
///
/// Exact for **every** network (any power assignment, any `α`, any `β`).
/// This is the engine-shaped replacement of the naive per-station loop:
/// same answers, `O(n)` instead of `O(n²)` per point.
#[derive(Debug, Clone)]
pub struct ExactScan {
    eval: SinrEvaluator,
}

impl ExactScan {
    /// Builds the backend for a network.
    pub fn new(net: &Network) -> Self {
        ExactScan {
            eval: SinrEvaluator::new(net),
        }
    }

    /// Wraps an already-built evaluator.
    pub fn from_evaluator(eval: SinrEvaluator) -> Self {
        ExactScan { eval }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &SinrEvaluator {
        &self.eval
    }
}

impl QueryEngine for ExactScan {
    fn locate(&self, p: Point) -> Located {
        self.eval.locate(p)
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        self.eval.locate_batch(points, out);
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.eval.sinr_batch(i, points, out);
    }

    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        Some(self.eval.sinr_bounds_cell(min, max, parent))
    }

    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        self.eval.locate_in_cell(cert, points, out);
        true
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.eval.freshness()
    }

    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        crate::channel::reception_probability_driver(
            &self.eval,
            SimdKernel::Portable,
            model,
            mc,
            points,
            out,
            |ev, p| ev.locate_scalar(p),
            |pts, located| self.eval.locate_batch(pts, located),
        )
    }

    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        crate::channel::sinr_quantiles_driver(&self.eval, model, mc, i, points, quantiles, out)
    }

    fn revision(&self) -> u64 {
        self.eval.revision()
    }

    fn is_stale(&self) -> bool {
        self.eval.is_stale()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
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

/// The incrementally maintained station index of [`VoronoiAssisted`]: a
/// static weighted [`KdTree`] over a past snapshot, with **tombstones**
/// for stations removed or relocated since, and a linear **overflow
/// list** for stations added or moved since. Power changes of in-tree
/// stations re-weight the tree in place ([`KdTree::set_weight`]).
/// Queries take the optimum over both — nearest by squared distance
/// under uniform power, strongest by `power · att(d²)` (the
/// power-diagram rule) otherwise — with ties breaking toward the
/// smallest current index, exactly the fresh-tree rule, so an
/// incrementally patched tree answers bit-for-bit like a rebuilt one.
///
/// Tombstones leave the tree's live power sums exact
/// ([`KdTree::tombstone`]), which is what lets
/// [`DynamicTree::certify_far_field`] bound whole subtrees of
/// interference without visiting them.
///
/// When tombstones + overflow cross the rebuild threshold (an eighth of
/// the stations, with a small-n floor) the structure is rebuilt from
/// scratch — the amortized-rebuild heuristic that keeps the overflow
/// scan from degrading the `O(log n)` dispatch toward `O(n)`.
#[derive(Debug, Clone)]
struct DynamicTree {
    tree: KdTree,
    /// kd-tree site slot → current station index; `None` = tombstone.
    tree_to_cur: Vec<Option<usize>>,
    /// current station index → where the station lives.
    cur_to_slot: Vec<SlotRef>,
    /// Stations living outside the tree.
    overflow: Overflow,
    /// Number of tombstoned tree slots.
    dead: usize,
}

#[derive(Debug, Clone, Copy)]
enum SlotRef {
    /// Index into `DynamicTree::tree` sites.
    Tree(usize),
    /// Index into `DynamicTree::overflow`.
    Overflow(usize),
}

/// The overflow list in structure-of-arrays form — position, power and
/// current station index per entry — so the per-query energy pass over
/// it is three linear streams.
#[derive(Debug, Clone, Default)]
struct Overflow {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ws: Vec<f64>,
    cur: Vec<usize>,
}

impl Overflow {
    fn len(&self) -> usize {
        self.cur.len()
    }

    fn push(&mut self, position: Point, power: f64, cur: usize) {
        self.xs.push(position.x);
        self.ys.push(position.y);
        self.ws.push(power);
        self.cur.push(cur);
    }

    fn swap_remove(&mut self, o: usize) {
        self.xs.swap_remove(o);
        self.ys.swap_remove(o);
        self.ws.swap_remove(o);
        self.cur.swap_remove(o);
    }
}

/// Overflow entries per block of [`DynamicTree::dispatch`]'s energy
/// pass: the block's distances and energies are computed in one
/// branch-free loop (which the compiler vectorizes), then folded.
const OVERFLOW_BLOCK: usize = 64;

/// The outcome of [`DynamicTree::dispatch`].
struct Dispatch {
    /// The only station that can be heard (current index).
    cand: usize,
    /// Its squared distance to the query point.
    d2: f64,
    /// `Σ att(d²) · power` over the overflow list — the exact part of
    /// the far-field bracket that the tree's live sums do not cover.
    overflow_energy: f64,
    /// The tree's far-field bracket at the first pass's opening rule,
    /// computed by the same walk as the dispatch (finite points only).
    tree_bracket: Option<EnergyBracket>,
}

impl DynamicTree {
    fn build(positions: Vec<Point>, powers: Vec<f64>) -> Self {
        let n = positions.len();
        DynamicTree {
            tree: KdTree::build_weighted(positions, powers),
            tree_to_cur: (0..n).map(Some).collect(),
            cur_to_slot: (0..n).map(SlotRef::Tree).collect(),
            overflow: Overflow::default(),
            dead: 0,
        }
    }

    /// The proximity dispatch at `p`: the nearest live station under
    /// uniform power (Observation 2.2 — legal only there), otherwise the
    /// strongest by `power · att(d²)` — the power-diagram (weighted
    /// Voronoi) nearest-dominator rule, legal for every power
    /// assignment. For a finite `p` the tree search rides the first
    /// far-field pass's bracket walk
    /// ([`KdTree::select_with_bracket`]); the overflow list is folded in
    /// by one pass that also sums its energies for the bracket.
    fn dispatch<K: PathLoss>(&self, k: K, p: Point, uniform: bool) -> Dispatch {
        let map = |slot: usize| self.tree_to_cur[slot];
        let att = |d2: f64| k.attenuation(d2);
        let mut tree_bracket = None;
        let tree_best = if p.x.is_finite() && p.y.is_finite() {
            let rule = if uniform {
                Dominator::Nearest
            } else {
                Dominator::Strongest
            };
            let (best, bracket) = self
                .tree
                .select_with_bracket(p, FAR_FIELD_OPEN_SQ[0], rule, att, far_envelope(k), map)
                .expect("the dispatch tree is weighted");
            tree_bracket = Some(bracket);
            best
        } else if uniform {
            self.tree.nearest_mapped(p, map)
        } else {
            self.tree
                .strongest_mapped(p, att, map)
                .map(|(cur, d2, _)| (cur, d2))
        };
        // The overflow fold compares strengths: recompute the tree
        // winner's with the walk's exact operation sequence.
        let mut best = tree_best.map(|(cur, d2)| {
            let strength = match self.cur_to_slot[cur] {
                SlotRef::Tree(t) if !uniform => att(d2) * self.tree.weights()[t],
                _ => 0.0,
            };
            (cur, d2, strength)
        });
        let ov = &self.overflow;
        let mut overflow_energy = 0.0;
        let mut d2s = [0.0f64; OVERFLOW_BLOCK];
        let mut es = [0.0f64; OVERFLOW_BLOCK];
        for start in (0..ov.len()).step_by(OVERFLOW_BLOCK) {
            let end = (start + OVERFLOW_BLOCK).min(ov.len());
            let m = end - start;
            for (((d2_slot, e_slot), (&x, &y)), &w) in d2s[..m]
                .iter_mut()
                .zip(&mut es[..m])
                .zip(ov.xs[start..end].iter().zip(&ov.ys[start..end]))
                .zip(&ov.ws[start..end])
            {
                let dx = x - p.x;
                let dy = y - p.y;
                let d2 = dx * dx + dy * dy;
                *d2_slot = d2;
                *e_slot = k.attenuation(d2) * w;
            }
            for ((&d2, &e), &cur) in d2s[..m].iter().zip(&es[..m]).zip(&ov.cur[start..end]) {
                overflow_energy += e;
                let better = match best {
                    None => true,
                    Some((bi, bd, _)) if uniform => d2 < bd || (d2 == bd && cur < bi),
                    Some((bi, _, bs)) => e > bs || (e == bs && cur < bi),
                };
                if better {
                    best = Some((cur, d2, e));
                }
            }
        }
        let (cand, d2, _) = best.expect("a built network has ≥ 2 stations");
        Dispatch {
            cand,
            d2,
            overflow_energy,
            tree_bracket,
        }
    }

    /// Tombstones tree slot `t`: it stops answering dispatch queries
    /// and its power leaves the tree's live sums (an `O(log n)` walk up
    /// the parent links), so far-field brackets never count it.
    fn tombstone(&mut self, t: usize) {
        self.tree_to_cur[t] = None;
        self.dead += 1;
        self.tree.tombstone(t);
    }

    /// Detaches station `i` from whichever store holds it (tombstoning a
    /// tree slot, or swap-removing an overflow entry and re-pointing the
    /// entry that took its place).
    fn detach(&mut self, i: usize) {
        match self.cur_to_slot[i] {
            SlotRef::Tree(t) => self.tombstone(t),
            SlotRef::Overflow(o) => {
                self.overflow.swap_remove(o);
                if o < self.overflow.len() {
                    let moved_cur = self.overflow.cur[o];
                    self.cur_to_slot[moved_cur] = SlotRef::Overflow(o);
                }
            }
        }
    }

    /// Mirrors [`DeltaOp::Add`]: the new station gets the next index.
    fn add(&mut self, position: Point, power: f64) {
        let cur = self.cur_to_slot.len();
        self.cur_to_slot
            .push(SlotRef::Overflow(self.overflow.len()));
        self.overflow.push(position, power, cur);
    }

    /// Mirrors [`DeltaOp::Remove`]'s swap-remove index discipline.
    fn remove(&mut self, i: usize, last_index: usize) {
        self.detach(i);
        if i != last_index {
            // `detach` above may have re-pointed `last_index`'s slot ref
            // (overflow swap), so read it only now.
            let moved = self.cur_to_slot[last_index];
            self.cur_to_slot[i] = moved;
            match moved {
                SlotRef::Tree(t) => self.tree_to_cur[t] = Some(i),
                SlotRef::Overflow(o) => self.overflow.cur[o] = i,
            }
        }
        self.cur_to_slot.pop();
    }

    /// Mirrors [`DeltaOp::Move`]: in-tree stations are tombstoned and
    /// reinserted into the overflow (carrying their current power);
    /// overflow stations move in place.
    fn relocate(&mut self, i: usize, to: Point, power: f64) {
        match self.cur_to_slot[i] {
            SlotRef::Overflow(o) => {
                self.overflow.xs[o] = to.x;
                self.overflow.ys[o] = to.y;
            }
            SlotRef::Tree(t) => {
                self.tombstone(t);
                self.cur_to_slot[i] = SlotRef::Overflow(self.overflow.len());
                self.overflow.push(to, power, i);
            }
        }
    }

    /// Mirrors [`DeltaOp::SetPower`]: overflow stations re-weight their
    /// entry, in-tree stations re-weight their slot in place
    /// ([`KdTree::set_weight`] — the tree shape depends on positions
    /// only, and the weight aggregates are recomputed up the path).
    fn set_power(&mut self, i: usize, to: f64) {
        match self.cur_to_slot[i] {
            SlotRef::Overflow(o) => self.overflow.ws[o] = to,
            SlotRef::Tree(t) => self.tree.set_weight(t, to),
        }
    }

    /// The rebuild-threshold heuristic: rebuild once an eighth of the
    /// stations (floor 16) have left the static tree. Every query pays
    /// an exact `O(overflow)` pass against `O(log n)` for the tree, so
    /// the overflow is the dominant per-query cost well before it
    /// reaches a quarter of the stations. A 4096-station network moving
    /// 8 stations per 1024-point batch rebuilds every ~32 batches at an
    /// eighth, and its mean move-and-locate step is about 20% shorter
    /// than at a quarter (rebuild cost included).
    fn should_rebuild(&self) -> bool {
        self.dead + self.overflow.len() > (self.cur_to_slot.len() / 8).max(16)
    }

    /// The certified far-field decision for the dispatch winner `d` at
    /// the finite point `p` (`d.d2 > 0`): brackets the total energy `T`
    /// as the exact overflow energy plus the kd-tree's
    /// [`live_energy_bracket`](KdTree::live_energy_bracket) — far
    /// subtrees contribute [`energy_envelope`](crate::bounds::energy_envelope)s
    /// of their live power sums, widened by
    /// [`BOUND_MARGIN`](crate::tile::BOUND_MARGIN) — and decides through
    /// the tiled executor's
    /// [`certify_decision`](crate::tile::certify_decision), whose
    /// [`TOTAL_MARGIN`](crate::tile::TOTAL_MARGIN) widening covers every
    /// kernel's rounded total, so a certified answer is the exact
    /// candidate scan's answer. Each pass of [`FAR_FIELD_OPEN_SQ`] opens
    /// more subtrees than the last; `None` when no pass certifies (the
    /// point sits too close to the `SINR = β` boundary).
    fn certify_far_field<K: PathLoss>(
        &self,
        eval: &SinrEvaluator,
        k: K,
        d: &Dispatch,
        p: Point,
    ) -> Option<Located> {
        use crate::tile::certify_decision;
        let (xs, ys, ws) = eval.soa();
        // The candidate's energy with the exact operation sequence of
        // the scan kernels (`RN(RN(attenuation)·ψ)`).
        let dx = xs[d.cand] - p.x;
        let dy = ys[d.cand] - p.y;
        let e_cand = k.attenuation(dx * dx + dy * dy) * ws[d.cand];
        for (pass, open_sq) in FAR_FIELD_OPEN_SQ.into_iter().enumerate() {
            let b = match d.tree_bracket {
                Some(b) if pass == 0 => b,
                _ => self.tree.live_energy_bracket(
                    p,
                    open_sq,
                    |d2| k.attenuation(d2),
                    far_envelope(k),
                )?,
            };
            let exact = d.overflow_energy + b.exact;
            // A non-finite bracket means an energy overflowed (a station
            // at subnormal distance) or a tombstoned slot sits at `p`
            // (`∞ · 0`): only the exact scan decides those.
            if !(e_cand + exact + b.far_hi).is_finite() {
                return None;
            }
            let (noise, beta) = (eval.noise(), eval.beta());
            if let Some(answer) = certify_decision(
                StationId(d.cand),
                e_cand,
                exact,
                b.far_lo,
                b.far_hi,
                noise,
                beta,
            ) {
                return Some(answer);
            }
        }
        None
    }
}

/// The far-subtree bound of the far-field bracket: the certified
/// [`energy_envelope`](crate::bounds::energy_envelope) of a subtree's
/// live power sum over its squared-distance range, widened by
/// [`BOUND_MARGIN`](crate::tile::BOUND_MARGIN).
fn far_envelope<K: PathLoss>(k: K) -> impl Fn(f64, f64, f64) -> (f64, f64) {
    move |w, d_min, d_max| {
        crate::bounds::energy_envelope(k, w, d_min, d_max, crate::tile::BOUND_MARGIN)
    }
}

/// The opening rule of [`DynamicTree::certify_far_field`]'s passes: a
/// kd-subtree whose box has squared extent at most `open_sq` times its
/// squared distance to the query point is bounded by one energy
/// envelope instead of being visited. The first pass is coarse — boxes
/// up to six times wider than their distance — because most points sit
/// far from the `SINR = β` boundary, where even a loose bracket
/// certifies (about 94% of uniform query points on a 4096-station
/// clustered-power network); the second opens boxes wider than half
/// their distance, leaving well under 1% of points to the exact scan.
const FAR_FIELD_OPEN_SQ: [f64; 2] = [36.0, 0.25];

/// The proximity-dispatch backend: kd-tree nearest-*dominator* search.
///
/// For uniform power the maximum-energy station *is* the nearest station
/// (Observation 2.2), so each query needs one `O(log n)` nearest-
/// neighbour search plus one reception test. For **non-uniform**
/// power the analogous dispatch (Kantor–Lotker–Parter–Peleg) is a
/// weighted Voronoi — power-diagram — cell lookup: the only station that
/// can be heard at `p` is the one maximising `Pᵢ · att(d²)`, found by the
/// kd-tree's best-first branch-and-bound over per-subtree
/// `(bbox, max power)` aggregates ([`KdTree::strongest_mapped`]). One
/// weighted tree serves both regimes; the cheaper nearest walk is chosen
/// per query whenever the current powers are uniform. Exact for all `β`
/// (for `β ≤ 1` the strongest heard station is the strongest overall, by
/// the same monotonicity as [`SinrEvaluator`]).
///
/// The reception test of the dispatched candidate is decided from a
/// **certified far-field bracket** of the total energy: the kd-tree
/// keeps an exact live power sum per subtree, so a subtree far from the
/// query point (relative to its extent) contributes one
/// [`energy_envelope`](crate::bounds::energy_envelope) of its summed
/// power instead of being visited. When the bracket cannot decide (the
/// point is within its width of the `SINR = β` boundary), a tighter
/// pass runs, and after that the exact candidate interference sum on
/// the vectorized lanes of [`crate::simd`] (the same runtime kernel
/// selection as [`SimdScan`](crate::simd::SimdScan)). Certified answers
/// are the exact sum's answers, so this backend shares `SimdScan`'s
/// numerical contract bit-for-bit: answers match the scalar ground
/// truth everywhere except within rounding tolerance of a `SINR = β`
/// decision boundary.
///
/// Under [`QueryEngine::apply`] the kd-tree is maintained through
/// tombstones and an overflow list with a rebuild threshold (see
/// [`DynamicTree`]); power deltas re-weight the index in place, so
/// uniform ↔ non-uniform transitions no longer drop it.
#[derive(Debug, Clone)]
pub struct VoronoiAssisted {
    eval: SinrEvaluator,
    /// The weighted proximity index; never dropped.
    tree: DynamicTree,
    /// The vectorized kernel for the candidate interference sum.
    kernel: SimdKernel,
}

impl VoronoiAssisted {
    /// Builds the backend: `O(n log n)` for the kd-tree.
    pub fn new(net: &Network) -> Self {
        let eval = SinrEvaluator::new(net);
        let powers = eval.soa().2.to_vec();
        let tree = DynamicTree::build(net.positions().to_vec(), powers);
        VoronoiAssisted {
            eval,
            tree,
            kernel: SimdKernel::detect(),
        }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &SinrEvaluator {
        &self.eval
    }

    /// The SIMD kernel the candidate interference sum resolved to.
    pub fn kernel(&self) -> SimdKernel {
        self.kernel
    }

    /// The per-point answer: the proximity dispatch
    /// ([`DynamicTree::dispatch`] — nearest station under uniform power,
    /// `argmax Pᵢ · att(d²)` otherwise; either way the only station
    /// that can be heard, ties toward the smallest index, the scan
    /// kernels' rule), then the certified far-field decision
    /// ([`DynamicTree::certify_far_field`]), then — only when that is
    /// inconclusive or `p` is not finite — the exact candidate scan.
    /// Certified answers equal the scan's by construction.
    #[inline]
    fn locate_via_tree(&self, p: Point) -> Located {
        self.eval.with_kernel(|ev, k| match k {
            DynKernel::Square(k) => self.locate_with(ev, k, p),
            DynKernel::General(k) => self.locate_with(ev, k, p),
        })
    }

    #[inline]
    fn locate_with<K: PathLoss>(&self, ev: &SinrEvaluator, k: K, p: Point) -> Located {
        let d = self.tree.dispatch(k, p, ev.is_uniform_power());
        if d.d2 == 0.0 {
            // At a station's position: reception by the `{sᵢ}` clause.
            // Both walks break co-location ties toward the smallest
            // index (all co-located stations tie at `d² = 0` /
            // infinite strength), matching the scalar ground truth.
            return Located::Reception(StationId(d.cand));
        }
        if p.x.is_finite() && p.y.is_finite() {
            if let Some(answer) = self.tree.certify_far_field(ev, k, &d, p) {
                return answer;
            }
        }
        ev.decide_candidate(
            d.cand,
            crate::simd::candidate_scan(ev, self.kernel, d.cand, p),
        )
    }

    /// The tiled executor's per-point candidate rule for the current
    /// powers: [`Select::Nearest`](crate::tile::Select::Nearest) under
    /// uniform power (the kd-tree's nearest walk),
    /// [`Select::MaxEnergy`](crate::tile::Select::MaxEnergy) otherwise
    /// (the power-diagram argmax — identical winner to the weighted
    /// walk, since both maximise the same per-station energies).
    #[inline]
    fn tile_select(&self) -> crate::tile::Select {
        if self.eval.is_uniform_power() {
            crate::tile::Select::Nearest
        } else {
            crate::tile::Select::MaxEnergy
        }
    }
}

impl QueryEngine for VoronoiAssisted {
    fn locate(&self, p: Point) -> Located {
        self.eval.assert_fresh();
        self.locate_via_tree(p)
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        self.eval.assert_fresh();
        let cfg = crate::tile::TileConfig::default();
        if cfg.engages(points.len(), self.eval.len()) {
            // Tiled proximity dispatch: the per-tile candidate set
            // plays the kd-tree's role (the winning station always
            // survives pruning under either selection rule), with the
            // serial tree walk as the per-point fallback.
            crate::tile::locate_batch_tiled(
                &self.eval,
                self.kernel,
                self.tile_select(),
                points,
                out,
                &cfg,
                |p| self.locate_via_tree(p),
            );
            return;
        }
        batch_map(points, out, |p| self.locate_via_tree(*p));
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.eval.sinr_batch(i, points, out);
    }

    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        // Sound for the tree dispatch too: a certified Reception pins a
        // strict unique energy argmax, which is exactly the station the
        // power-diagram walk (and, under uniform power, the nearest
        // walk) selects; certified Silent fails every station's test
        // including whichever one the tree walk picks. The cell
        // certificates' envelopes are per-station and power-aware, so
        // this holds for every power assignment. The pinned kernel runs
        // the envelope pass (bit-identical on every kernel).
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
        // Certified decisions under this backend's per-query candidate
        // rule (nearest for uniform power, max-energy otherwise);
        // uncertifiable points stay `None` for the caller's tiled
        // batch path.
        crate::tile::locate_in_cell(&self.eval, self.tile_select(), cert, points, out);
        true
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.eval.freshness()
    }

    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        // Identity channels route through `locate_batch` inside the
        // driver (so degenerate answers keep this backend's tree-based
        // summation order bit-for-bit); non-identity trials scale the
        // powers per trial, which the static tree's baked weights do
        // not track — the per-trial serial kernel is the exact scalar
        // scan over the trial-scaled evaluator.
        crate::channel::reception_probability_driver(
            &self.eval,
            self.kernel,
            model,
            mc,
            points,
            out,
            |ev, p| ev.locate_scalar(p),
            |pts, located| self.locate_batch(pts, located),
        )
    }

    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        crate::channel::sinr_quantiles_driver(&self.eval, model, mc, i, points, quantiles, out)
    }

    fn revision(&self) -> u64 {
        self.eval.revision()
    }

    fn is_stale(&self) -> bool {
        self.eval.is_stale()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        self.eval.apply(delta)?;
        // The weighted index absorbs every delta kind — including power
        // changes, which historically dropped the tree (the unweighted
        // index could only serve uniform networks). Uniform ↔
        // non-uniform transitions are now just re-weights.
        match delta.op() {
            DeltaOp::Add {
                position, power, ..
            } => self.tree.add(*position, *power),
            DeltaOp::Remove { id, last_index, .. } => self.tree.remove(id.0, *last_index),
            DeltaOp::Move { id, to, .. } => {
                let power = self.eval.soa().2[id.0];
                self.tree.relocate(id.0, *to, power);
            }
            DeltaOp::SetPower { id, to, .. } => self.tree.set_power(id.0, *to),
        }
        if self.tree.should_rebuild() {
            self.tree = DynamicTree::build(self.eval.position_points(), self.eval.soa().2.to_vec());
        }
        Ok(())
    }

    fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
        *self = VoronoiAssisted::new(net);
        Ok(())
    }

    fn freeze(&mut self) {
        self.eval.freeze();
    }
}

/// A backend chosen at runtime: any [`QueryEngine`] behind one owned,
/// object-safe handle.
///
/// The concrete backends are distinct types (deliberately — batch hot
/// loops monomorphize over them), which is the wrong shape for callers
/// that pick a backend from a config value, a CLI flag, or a network
/// client's `Bind` frame (`sinr-server`). `BoxedEngine` erases the type
/// while keeping the whole [`QueryEngine`] contract, including the
/// dynamic path (`apply`/`sync`), and remembers a stable backend name
/// for logs and wire responses.
///
/// Constructors cover this crate's backends; [`BoxedEngine::new`] wraps
/// any other implementation (e.g. the Theorem-3 `PointLocator` of
/// `sinr-pointloc`).
///
/// # Examples
///
/// ```
/// use sinr_core::engine::{BoxedEngine, QueryEngine};
/// use sinr_core::Network;
/// use sinr_geometry::Point;
///
/// let net = Network::uniform(
///     vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
///     0.0,
///     2.0,
/// ).unwrap();
/// let engine = match "simd_scan" {
///     "exact_scan" => BoxedEngine::exact_scan(&net),
///     "simd_scan" => BoxedEngine::simd_scan(&net),
///     _ => BoxedEngine::voronoi_assisted(&net),
/// };
/// assert_eq!(engine.backend_name(), "simd_scan");
/// assert!(engine.locate(Point::new(0.5, 0.0)).station().is_some());
/// ```
pub struct BoxedEngine {
    inner: Box<dyn CloneableEngine>,
    backend: &'static str,
}

/// Object-safe clone support for the erased engine: a blanket impl
/// covers every cloneable, thread-safe [`QueryEngine`], so
/// [`BoxedEngine`] itself can be [`Clone`] + [`Sync`] — the shape
/// snapshot publication ([`crate::snapshot`]) needs (clone the master,
/// freeze the clone, share it behind an `Arc`).
trait CloneableEngine: QueryEngine + Send + Sync {
    fn boxed_clone(&self) -> Box<dyn CloneableEngine>;
}

impl<E: QueryEngine + Clone + Send + Sync + 'static> CloneableEngine for E {
    fn boxed_clone(&self) -> Box<dyn CloneableEngine> {
        Box::new(self.clone())
    }
}

impl Clone for BoxedEngine {
    fn clone(&self) -> Self {
        BoxedEngine {
            inner: self.inner.boxed_clone(),
            backend: self.backend,
        }
    }
}

impl std::fmt::Debug for BoxedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoxedEngine")
            .field("backend", &self.backend)
            .field("revision", &self.inner.revision())
            .finish()
    }
}

impl BoxedEngine {
    /// Wraps any engine under the given stable backend name. The engine
    /// must be `Clone + Send + Sync` so the erased handle stays
    /// cloneable and shareable (every shipped backend is).
    pub fn new<E: QueryEngine + Clone + Send + Sync + 'static>(
        backend: &'static str,
        engine: E,
    ) -> Self {
        BoxedEngine {
            inner: Box::new(engine),
            backend,
        }
    }

    /// An [`ExactScan`] behind the erased handle (`"exact_scan"`).
    pub fn exact_scan(net: &Network) -> Self {
        BoxedEngine::new("exact_scan", ExactScan::new(net))
    }

    /// A [`SimdScan`](crate::simd::SimdScan) behind the erased handle
    /// (`"simd_scan"`).
    pub fn simd_scan(net: &Network) -> Self {
        BoxedEngine::new("simd_scan", crate::simd::SimdScan::new(net))
    }

    /// A [`VoronoiAssisted`] behind the erased handle
    /// (`"voronoi_assisted"`).
    pub fn voronoi_assisted(net: &Network) -> Self {
        BoxedEngine::new("voronoi_assisted", VoronoiAssisted::new(net))
    }

    /// The stable name of the wrapped backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend
    }
}

impl QueryEngine for BoxedEngine {
    fn locate(&self, p: Point) -> Located {
        self.inner.locate(p)
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        self.inner.locate_batch(points, out);
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.inner.sinr_batch(i, points, out);
    }

    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        self.inner.sinr_bounds_cell(min, max, parent)
    }

    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        self.inner.locate_in_cell(cert, points, out)
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.inner.freshness()
    }

    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        self.inner
            .reception_probability_batch(model, mc, points, out)
    }

    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        self.inner
            .sinr_quantiles_batch(model, mc, i, points, quantiles, out)
    }

    fn revision(&self) -> u64 {
        self.inner.revision()
    }

    fn is_stale(&self) -> bool {
        self.inner.is_stale()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        self.inner.apply(delta)
    }

    fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
        self.inner.sync(net)
    }

    fn freeze(&mut self) {
        self.inner.freeze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinr;

    fn nets() -> Vec<Network> {
        vec![
            // Uniform, β > 1, no noise.
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
            // Uniform, β < 1, noisy.
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap(),
            // Non-uniform power.
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(0.0, 5.0), 0.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
            // α = 4.
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
            // Co-located pair plus a third station.
            Network::uniform(
                vec![Point::ORIGIN, Point::ORIGIN, Point::new(3.0, 0.0)],
                0.0,
                2.0,
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

    #[test]
    fn exact_scan_matches_scalar_ground_truth() {
        for net in nets() {
            let engine = ExactScan::new(&net);
            for p in grid_points(6.0, 25) {
                let expected = sinr::heard_at(&net, p);
                assert_eq!(
                    engine.locate(p).station(),
                    expected,
                    "ExactScan disagrees at {p} in {net}"
                );
            }
        }
    }

    #[test]
    fn voronoi_assisted_matches_scalar_ground_truth() {
        for net in nets() {
            let engine = VoronoiAssisted::new(&net);
            // The weighted tree serves every power assignment.
            for p in grid_points(6.0, 25) {
                let expected = sinr::heard_at(&net, p);
                let got = engine.locate(p).station();
                if got != expected {
                    // The candidate sum runs on the SIMD lanes, so (like
                    // SimdScan) only genuine SINR = β boundary rounding
                    // may differ from the scalar summation order.
                    let boundary = net.ids().any(|i| {
                        let s = sinr::sinr(&net, i, p);
                        s.is_finite() && (s - net.beta()).abs() <= 1e-9 * (1.0 + net.beta())
                    });
                    assert!(
                        boundary,
                        "VoronoiAssisted disagrees at {p} in {net}: {got:?} vs {expected:?}"
                    );
                }
            }
        }
    }

    /// A 4096-station network with clustered powers — every 64th station
    /// an 8× macro cell, the rest spread over `0.5..1.5` — and query
    /// points uniform over its box plus a 5% margin.
    fn clustered_power_instance(points: usize) -> (Network, Vec<Point>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA12);
        let half = 64.0;
        let mut b = Network::builder().background_noise(0.01).threshold(2.0);
        for (k, s) in crate::gen::uniform_in_box(&mut rng, 4096, half)
            .into_iter()
            .enumerate()
        {
            let power = if k % 64 == 0 {
                8.0
            } else {
                rng.gen_range(0.5..1.5)
            };
            b = b.station_with_power(s, power);
        }
        let net = b.build().unwrap();
        let queries = crate::gen::uniform_in_box(&mut rng, points, half * 1.05);
        (net, queries)
    }

    #[test]
    fn far_field_certifies_most_points_exactly() {
        let (net, queries) = clustered_power_instance(4000);
        let engine = VoronoiAssisted::new(&net);
        let k = InverseSquare;
        let mut certified = 0usize;
        for &p in &queries {
            let d = engine.tree.dispatch(k, p, engine.eval.is_uniform_power());
            assert!(d.d2 > 0.0);
            let exact = engine.eval.decide_candidate(
                d.cand,
                crate::simd::candidate_scan(&engine.eval, engine.kernel, d.cand, p),
            );
            if let Some(answer) = engine.tree.certify_far_field(&engine.eval, k, &d, p) {
                assert_eq!(
                    answer, exact,
                    "certified answer differs from the scan at {p}"
                );
                certified += 1;
            }
        }
        // An implementation that always falls back would still answer
        // correctly; this pins that the bracket actually decides.
        assert!(
            certified * 100 >= queries.len() * 95,
            "only {certified} of {} points certified",
            queries.len()
        );
    }

    #[test]
    fn station_positions_locate_as_reception() {
        for net in nets() {
            for engine in [
                Box::new(ExactScan::new(&net)) as Box<dyn QueryEngine>,
                Box::new(VoronoiAssisted::new(&net)),
            ] {
                for i in net.ids() {
                    let got = engine.locate(net.position(i));
                    match got {
                        Located::Reception(_) => {}
                        other => panic!("station {i} of {net}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn batch_agrees_with_scalar_calls_and_parallelizes() {
        let net = Network::uniform(
            vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(1.0, 3.0),
            ],
            0.01,
            1.5,
        )
        .unwrap();
        let engine = VoronoiAssisted::new(&net);
        // Long enough that `batch_map`'s measured work usually takes the
        // parallel branch; the answers must not depend on which ran.
        let points = grid_points(5.0, 40);
        assert!(points.len() > PARALLEL_BATCH_THRESHOLD);
        let mut batch = vec![Located::Silent; points.len()];
        engine.locate_batch(&points, &mut batch);
        for (p, got) in points.iter().zip(&batch) {
            assert_eq!(*got, engine.locate(*p), "batch/scalar mismatch at {p}");
        }
    }

    #[test]
    fn sinr_batch_matches_scalar_sinr() {
        for net in nets() {
            let eval = SinrEvaluator::new(&net);
            let points = grid_points(5.0, 12);
            let mut out = vec![0.0; points.len()];
            for i in net.ids() {
                eval.sinr_batch(i, &points, &mut out);
                for (p, got) in points.iter().zip(&out) {
                    let expected = sinr::sinr(&net, i, *p);
                    if expected.is_infinite() {
                        assert!(got.is_infinite(), "{i} at {p}: {got} vs ∞");
                    } else {
                        assert!(
                            (got - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
                            "{i} at {p}: {got} vs {expected}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn evaluator_accessors() {
        let net = Network::builder()
            .station_with_power(Point::new(1.0, 2.0), 3.0)
            .station(Point::new(-1.0, 0.5))
            .background_noise(0.07)
            .threshold(2.5)
            .path_loss(3.0)
            .build()
            .unwrap();
        let eval = SinrEvaluator::new(&net);
        assert_eq!(eval.len(), 2);
        assert!(!eval.is_empty());
        assert_eq!(eval.beta(), 2.5);
        assert_eq!(eval.noise(), 0.07);
        assert_eq!(eval.alpha(), 3.0);
        assert!(!eval.is_uniform_power());
        assert_eq!(eval.position(StationId(0)), Point::new(1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "batch_map")]
    fn mismatched_batch_lengths_panic() {
        let net = Network::uniform(vec![Point::ORIGIN, Point::new(1.0, 0.0)], 0.0, 2.0).unwrap();
        let engine = ExactScan::new(&net);
        let mut out = vec![Located::Silent; 3];
        engine.locate_batch(&[Point::ORIGIN], &mut out);
    }

    /// Busy-waits `d`: a per-input cost large enough that `batch_map`'s
    /// measured-work gate takes the parallel branch.
    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn batch_map_parallel_and_serial_agree() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let mut out = vec![0u64; inputs.len()];
        batch_map(&inputs, &mut out, |x| x * 3 + 1);
        assert!(inputs.iter().zip(&out).all(|(x, y)| *y == x * 3 + 1));
        // Expensive inputs: the same answers through the parallel branch.
        let mut slow = vec![0u64; inputs.len()];
        batch_map(&inputs, &mut slow, |x| {
            spin(Duration::from_micros(1));
            x * 3 + 1
        });
        assert_eq!(slow, out);
        let small: Vec<u64> = (0..7).collect();
        let mut small_out = vec![0u64; 7];
        batch_map(&small, &mut small_out, |x| x + 1);
        assert_eq!(small_out, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn work_stealing_matches_a_serial_map() {
        // Sizes straddling the threshold and the tile size, including a
        // non-multiple-of-tile length.
        for len in [
            PARALLEL_BATCH_THRESHOLD - 1,
            PARALLEL_BATCH_THRESHOLD,
            PARALLEL_BATCH_THRESHOLD + 1,
            3 * BATCH_TILE + 17,
            25_000,
        ] {
            let inputs: Vec<u64> = (0..len as u64).collect();
            let f = |x: &u64| x.wrapping_mul(0x9E37_79B9) ^ 7;
            let mut stolen = vec![0u64; len];
            batch_map(&inputs, &mut stolen, f);
            let serial: Vec<u64> = inputs.iter().map(f).collect();
            assert_eq!(
                stolen, serial,
                "batch_map disagrees with a serial map at len {len}"
            );
        }
    }

    #[test]
    fn batch_map_drops_previous_values_exactly_once() {
        // The work-stealing writer overwrites initialized slots; each old
        // value must be dropped exactly once and each new value kept.
        let len = PARALLEL_BATCH_THRESHOLD + 123;
        let inputs: Vec<u64> = (0..len as u64).collect();
        let mut out: Vec<std::sync::Arc<u64>> = (0..len as u64).map(std::sync::Arc::new).collect();
        let probes: Vec<std::sync::Arc<u64>> = out.clone();
        // Expensive enough per input that the parallel branch runs
        // wherever there is more than one core.
        batch_map(&inputs, &mut out, |x| {
            spin(Duration::from_micros(1));
            std::sync::Arc::new(x + 1)
        });
        for (x, slot) in inputs.iter().zip(&out) {
            assert_eq!(**slot, x + 1);
        }
        // The originals are only referenced by `probes` now.
        assert!(probes.iter().all(|p| std::sync::Arc::strong_count(p) == 1));
    }
}
