//! Hierarchical (quadtree-refined) reception-map rasterisation.
//!
//! The dense path ([`ReceptionMap::compute`]) evaluates every pixel of
//! the grid. But by Theorem 1 (convexity) and Theorem 2 (fatness) of the
//! paper, reception zones are fat convex bodies: the set of pixels whose
//! status is *ambiguous at raster resolution* is a thin band around the
//! `SINR = β` zone boundaries, with measure proportional to boundary
//! *length* while the grid grows with *area*. This module exploits that
//! asymmetry through the interval certificates of `sinr-core`
//! ([`QueryEngine::sinr_bounds_cell`]): starting from the whole window,
//! any cell whose certified SINR brackets put every point strictly on
//! one side of the reception test is resolved wholesale, and only cells
//! the certificate leaves [`CellDecision::Mixed`] are subdivided — down
//! to pixel resolution, where the surviving pixels are answered
//! per-point *against the certificate in hand*
//! ([`QueryEngine::locate_in_cell`] — candidate-only certified
//! decisions, `O(candidates)` per pixel), and only what neither path
//! resolves goes to ONE ordinary [`QueryEngine::locate_batch`] call.
//!
//! ## The equivalence contract
//!
//! The produced [`Raster`] is **bit-identical** to the dense path of the
//! same backend, for every backend and kernel:
//!
//! * certificate-resolved pixels carry a decision that is *proved* for
//!   every point of the cell (the margins in `sinr-core::tile` are
//!   one-sided — looseness degrades to `Mixed`, never to a wrong uniform
//!   claim);
//! * every other pixel is answered by the backend itself — through
//!   `locate_in_cell` (certified candidate-only decisions with the
//!   backend's serial kernel as fallback, pinned bit-identical to its
//!   `locate`) or its own `locate_batch`, whose per-point answers are
//!   order- and composition-independent (the permutation-invariance
//!   differential suites pin this), so batching only the *unresolved*
//!   pixels changes nothing;
//! * a backend without certificates (`sinr_bounds_cell` → `None`, e.g.
//!   the approximate Theorem-3 locator) degrades to exactly the dense
//!   evaluation in one batch.
//!
//! ## Parallel execution
//!
//! Once a cell has its parent certificate, its subtree reads nothing
//! but that certificate, the engine and its own pixels: the subtrees of
//! the refinement are independent. The top of the recursion therefore
//! runs serially down to regions of at most 1/64 of the raster (never
//! below 4096 pixels, so small rasters are a single task); each region
//! reached there becomes one task carrying exactly the parent
//! certificate the one-thread recursion would have passed it, and the
//! tasks run on `sinr-core`'s work-stealing scheduler
//! ([`sinr_core::tile::steal_tiles`]). A certificate-less backend hands
//! the whole raster to one task, which defers every pixel as before.
//! The split cannot change answers or [`HierarchicalStats`]: every
//! region is certified by the same call, under the same parent, at the
//! same midpoints as in the one-thread recursion, so every pixel is
//! decided by the same certificate or backend call — only the thread
//! that runs a subtree changes. Tasks *record* their labels (certified
//! regions and point-certified pixels) instead of writing them, and
//! their records, unresolved pixels and counters merge in task order,
//! which is the one-thread recursion's visiting order — so even the
//! final `locate_batch` sees the same points in the same order.
//!
//! Because nothing is written until the refinement and the final batch
//! are done, the label buffer's first touch overlaps them: on rasters
//! large enough to spawn tasks, the calling thread allocates and
//! initialises the buffer (16 bytes a pixel — 64 MB at 2048², where the
//! page faults cost as much as the whole refinement) while a helper
//! thread runs the refinement and the batch. The recorded labels are
//! then painted in parallel row bands (a band owns its rows — disjoint
//! slices split in safe code), skipping silent regions, which the
//! buffer already holds.
//!
//! The payoff is reported, not assumed: [`HierarchicalStats`] carries
//! the evaluated-pixel fraction (the `cells_evaluated / pixels` metric
//! the perf harness trends).

use crate::raster::{assert_window, pixel_center, PixelLabel, Raster, ReceptionMap};
use sinr_core::engine::{Located, QueryEngine};
use sinr_core::tile::{steal_tiles, CellCert, CellDecision};
use sinr_core::Network;
use sinr_geometry::{BBox, Point};
use std::sync::Mutex;

/// Below this many pixels a region skips certification and goes straight
/// to the batched per-pixel evaluation: a certificate costs at least a
/// candidate re-envelope pass, which cannot pay for itself on 1–3
/// pixels. Recursion therefore bottoms out at 2×2 cells — small enough
/// that the unresolved band hugs the zone boundaries at pixel scale.
const MIN_CERT_PIXELS: usize = 4;

/// Observability of one hierarchical rasterisation (the counters say
/// nothing about answers, which are always bit-identical to the dense
/// path of the same backend).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalStats {
    /// Total pixels of the raster (`width · height`).
    pub pixels: u64,
    /// Pixels answered by the backend's per-point paths
    /// (`locate_in_cell` against the enclosing certificate, or the
    /// final `locate_batch`) because no cell-level certificate resolved
    /// them wholesale — the cost driver, and the numerator of
    /// [`HierarchicalStats::fraction`].
    pub cells_evaluated: u64,
    /// Interval certificates computed during refinement.
    pub certificates: u64,
    /// Of [`HierarchicalStats::cells_evaluated`], pixels answered by the
    /// per-point certified path ([`QueryEngine::locate_in_cell`] against
    /// the enclosing cell's certificate, `O(candidates)` each); the
    /// remainder went through the final `locate_batch`.
    pub point_certified: u64,
    /// Pixels resolved wholesale by a certified uniform cell decision.
    pub certified_pixels: u64,
}

impl HierarchicalStats {
    /// Fraction of pixels that paid a per-point engine evaluation
    /// (`cells_evaluated / pixels`) — the headline economy metric: the
    /// dense path is always exactly `1.0`.
    pub fn fraction(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.cells_evaluated as f64 / self.pixels as f64
        }
    }
}

/// The serial top of the refinement hands every region of at most
/// `1 / SPLIT_FANOUT` of the raster to a parallel task — 64 blocks, the
/// third quadtree level of a square grid: enough to keep every core of
/// a small machine busy through the skew between boundary-dense and
/// certified-at-once blocks.
const SPLIT_FANOUT: usize = 64;

/// Regions of at most this many pixels always form one task, so small
/// rasters run as a single task on the calling thread instead of paying
/// thread spawns for microseconds of work.
const MIN_TASK_PIXELS: usize = 4096;

/// A half-open pixel-index region `[c0, c1) × [r0, r1)`.
#[derive(Debug, Clone, Copy)]
struct Region {
    c0: usize,
    c1: usize,
    r0: usize,
    r1: usize,
}

impl Region {
    fn new(c0: usize, c1: usize, r0: usize, r1: usize) -> Self {
        Region { c0, c1, r0, r1 }
    }

    fn width(&self) -> usize {
        self.c1 - self.c0
    }

    fn pixels(&self) -> usize {
        self.width() * (self.r1 - self.r0)
    }

    /// The quadrants (long-axis halves for strips), in visiting order;
    /// a strip's missing halves come out empty.
    fn children(&self) -> [Region; 4] {
        let Region { c0, c1, r0, r1 } = *self;
        let cm = if c1 - c0 > 1 { c0 + (c1 - c0) / 2 } else { c1 };
        let rm = if r1 - r0 > 1 { r0 + (r1 - r0) / 2 } else { r1 };
        [
            Region::new(c0, cm, r0, rm),
            Region::new(cm, c1, r0, rm),
            Region::new(c0, cm, rm, r1),
            Region::new(cm, c1, rm, r1),
        ]
    }
}

/// One independent subtree of the refinement: a region together with
/// the certificate its parent cell would pass it.
struct Task {
    region: Region,
    parent: Option<CellCert>,
}

/// The labels a refinement decided, recorded for painting once the
/// label buffer exists.
#[derive(Debug, Default)]
struct Labels {
    /// Regions resolved wholesale by a certified uniform decision.
    fills: Vec<(Region, PixelLabel)>,
    /// Point-certified pixels: raster-wide row-major index and label.
    pixels: Vec<(usize, PixelLabel)>,
}

impl Labels {
    fn extend(&mut self, other: Labels) {
        self.fills.extend(other.fills);
        self.pixels.extend(other.pixels);
    }
}

/// The refinement state of one region of the raster: grid geometry, the
/// labels it decided, and its deferred per-pixel batch.
struct Refiner<'a, E: QueryEngine + ?Sized> {
    engine: &'a E,
    window: &'a BBox,
    width: usize,
    height: usize,
    labels: Labels,
    /// Raster-wide row-major indices of pixels no certificate resolved.
    unresolved: Vec<usize>,
    stats: HierarchicalStats,
}

impl<'a, E: QueryEngine + ?Sized> Refiner<'a, E> {
    fn new(engine: &'a E, window: &'a BBox, (width, height): (usize, usize)) -> Self {
        Refiner {
            engine,
            window,
            width,
            height,
            labels: Labels::default(),
            unresolved: Vec::new(),
            stats: HierarchicalStats::default(),
        }
    }

    fn center(&self, col: usize, row: usize) -> Point {
        pixel_center(self.window, self.width, self.height, col, row)
    }

    /// Certifies a region under its (containing) parent certificate.
    fn certify(&mut self, region: Region, parent: Option<&CellCert>) -> Option<CellCert> {
        // The certified box spans the pixel *centres* of the region —
        // the only points the raster ever samples. (For 1-wide strips
        // this is a flat box; the certificate layer accepts it.)
        let lo = self.center(region.c0, region.r0);
        let hi = self.center(region.c1 - 1, region.r1 - 1);
        let cert = self.engine.sinr_bounds_cell(lo, hi, parent)?;
        self.stats.certificates += 1;
        Some(cert)
    }

    /// The serial top of the refinement: recurses exactly like
    /// [`Refiner::refine`], but hands each region of at most
    /// `task_pixels` — and each region a certificate-less backend
    /// cannot certify — to `tasks`, in the order `refine` would visit
    /// them.
    fn split(
        &mut self,
        region: Region,
        parent: Option<&CellCert>,
        task_pixels: usize,
        tasks: &mut Vec<Task>,
    ) {
        let count = region.pixels();
        if count == 0 {
            return;
        }
        let cert = if count > task_pixels {
            self.certify(region, parent)
        } else {
            None
        };
        let Some(cert) = cert else {
            // Small enough for one task — or not certifiable, and then
            // the task repeats the (pure) certificate call and defers
            // the whole region, exactly as `refine` would here.
            tasks.push(Task {
                region,
                parent: parent.cloned(),
            });
            return;
        };
        match cert.decision() {
            CellDecision::Reception(i) => self.fill(region, PixelLabel::Heard(i)),
            CellDecision::Silent => self.fill(region, PixelLabel::Silent),
            CellDecision::Mixed => {
                for child in region.children() {
                    self.split(child, Some(&cert), task_pixels, tasks);
                }
            }
        }
    }

    /// Refines a region under a (contained) parent certificate.
    fn refine(&mut self, region: Region, parent: Option<&CellCert>) {
        let count = region.pixels();
        if count == 0 {
            return;
        }
        if count < MIN_CERT_PIXELS {
            self.defer(region, parent);
            return;
        }
        let Some(cert) = self.certify(region, parent) else {
            // Certificate-less backend: dense-equivalent in one batch.
            self.defer(region, None);
            return;
        };
        match cert.decision() {
            CellDecision::Reception(i) => self.fill(region, PixelLabel::Heard(i)),
            CellDecision::Silent => self.fill(region, PixelLabel::Silent),
            CellDecision::Mixed => {
                // Subdivide (long-axis-only for strips) and push the
                // certificate down: children re-envelope only its
                // surviving candidates.
                for child in region.children() {
                    self.refine(child, Some(&cert));
                }
            }
        }
    }

    /// Resolves a whole region from a certified uniform decision.
    fn fill(&mut self, region: Region, label: PixelLabel) {
        self.labels.fills.push((region, label));
        self.stats.certified_pixels += region.pixels() as u64;
    }

    /// Resolves a sub-certificate-sized region per pixel against its
    /// containing cell's certificate (candidate-only certified
    /// decisions — every `Some` bit-identical to `locate_batch`),
    /// queueing whatever the margins cannot pin for the final batch.
    /// The per-pixel attempt matters: boundary pixels are spatially
    /// scattered, so the final batch's Morton tiles span wide boxes and
    /// prune poorly, while the certificate in hand already names the
    /// few competitive stations.
    fn defer(&mut self, region: Region, parent: Option<&CellCert>) {
        let Region { c0, c1, r0, r1 } = region;
        if let Some(cert) = parent {
            let count = region.pixels();
            if count < MIN_CERT_PIXELS {
                let mut pts = [Point::ORIGIN; MIN_CERT_PIXELS - 1];
                let mut located = [None; MIN_CERT_PIXELS - 1];
                let mut k = 0usize;
                for row in r0..r1 {
                    for col in c0..c1 {
                        pts[k] = self.center(col, row);
                        k += 1;
                    }
                }
                if self
                    .engine
                    .locate_in_cell(cert, &pts[..k], &mut located[..k])
                {
                    let mut i = 0usize;
                    for row in r0..r1 {
                        for col in c0..c1 {
                            match located[i] {
                                Some(loc) => {
                                    self.stats.cells_evaluated += 1;
                                    self.stats.point_certified += 1;
                                    self.labels
                                        .pixels
                                        .push((row * self.width + col, label_of(loc)));
                                }
                                None => self.unresolved.push(row * self.width + col),
                            }
                            i += 1;
                        }
                    }
                    return;
                }
            }
        }
        for row in r0..r1 {
            for col in c0..c1 {
                self.unresolved.push(row * self.width + col);
            }
        }
    }
}

/// The [`Located`]-to-[`PixelLabel`] projection of the dense path
/// (uncertain pixels label silent).
fn label_of(loc: Located) -> PixelLabel {
    match loc {
        Located::Reception(id) => PixelLabel::Heard(id),
        Located::Uncertain(_) | Located::Silent => PixelLabel::Silent,
    }
}

/// The whole refinement short of the final batch, recording certified
/// and point-certified labels and returning them with the unresolved
/// pixels and the counters: the serial top splits the raster into
/// tasks, the scheduler runs them, and their records, unresolved lists
/// and counters merge in task order — which is the order the one-thread
/// recursion visits them, so the merged unresolved list is that
/// recursion's too.
fn refine_in_tasks<E: QueryEngine + Sync + ?Sized>(
    engine: &E,
    window: &BBox,
    (width, height): (usize, usize),
) -> (Labels, Vec<usize>, HierarchicalStats) {
    let raster = Region::new(0, width, 0, height);
    let task_pixels = (raster.pixels() / SPLIT_FANOUT).max(MIN_TASK_PIXELS);
    let mut tasks = Vec::new();
    let mut top = Refiner::new(engine, window, (width, height));
    top.split(raster, None, task_pixels, &mut tasks);
    let (mut labels, mut unresolved, mut stats) = (top.labels, top.unresolved, top.stats);
    let refiners: Vec<Mutex<Refiner<'_, E>>> = tasks
        .iter()
        .map(|_| Mutex::new(Refiner::new(engine, window, (width, height))))
        .collect();
    steal_tiles::<(), _>(tasks.len(), |t, _| {
        // Each task index is claimed exactly once: the lock never waits.
        let mut refiner = refiners[t].lock().expect("a task never runs twice");
        refiner.refine(tasks[t].region, tasks[t].parent.as_ref());
    });
    for refiner in refiners {
        let task = refiner.into_inner().expect("every task ran to completion");
        labels.extend(task.labels);
        unresolved.extend_from_slice(&task.unresolved);
        stats.cells_evaluated += task.stats.cells_evaluated;
        stats.certificates += task.stats.certificates;
        stats.point_certified += task.stats.point_certified;
        stats.certified_pixels += task.stats.certified_pixels;
    }
    (labels, unresolved, stats)
}

/// Everything but the label buffer: the refinement, then ONE
/// [`QueryEngine::locate_batch`] over the pixels it left unresolved.
/// Returns the recorded labels — the batch's answers appended to the
/// point-certified pixels — and the counters.
fn resolve<E: QueryEngine + Sync + ?Sized>(
    engine: &E,
    window: &BBox,
    (width, height): (usize, usize),
) -> (Labels, HierarchicalStats) {
    let (mut labels, unresolved, stats) = refine_in_tasks(engine, window, (width, height));
    if !unresolved.is_empty() {
        let centers: Vec<Point> = unresolved
            .iter()
            .map(|&idx| pixel_center(window, width, height, idx % width, idx / width))
            .collect();
        let mut located = vec![Located::Silent; centers.len()];
        engine.locate_batch(&centers, &mut located);
        labels.pixels.extend(
            unresolved
                .iter()
                .zip(&located)
                .map(|(&idx, &loc)| (idx, label_of(loc))),
        );
    }
    let stats = HierarchicalStats {
        pixels: (width * height) as u64,
        cells_evaluated: stats.cells_evaluated + unresolved.len() as u64,
        ..stats
    };
    (labels, stats)
}

/// Writes recorded labels into an all-silent label buffer (row-major,
/// `width` wide). Fills are painted in parallel row bands — each band a
/// disjoint slice of the buffer, applying the part of every fill that
/// crosses it; silent fills are skipped, the buffer already holds them.
fn paint(cells: &mut [PixelLabel], width: usize, labels: &Labels) {
    let height = cells.len() / width;
    let band_rows = height
        .div_ceil(SPLIT_FANOUT)
        .max(MIN_TASK_PIXELS.div_ceil(width));
    let bands: Vec<Mutex<&mut [PixelLabel]>> = cells
        .chunks_mut(band_rows * width)
        .map(Mutex::new)
        .collect();
    steal_tiles::<(), _>(bands.len(), |b, _| {
        // Each band index is claimed exactly once: the lock never waits.
        let mut band = bands[b].lock().expect("a band is painted once");
        let (r0, r1) = (b * band_rows, b * band_rows + band.len() / width);
        for &(region, label) in &labels.fills {
            if label == PixelLabel::Silent {
                continue;
            }
            for row in region.r0.max(r0)..region.r1.min(r1) {
                let at = (row - r0) * width;
                band[at + region.c0..at + region.c1].fill(label);
            }
        }
    });
    for &(idx, label) in &labels.pixels {
        cells[idx] = label;
    }
}

/// Rasterises any [`QueryEngine`] backend over a window by quadtree
/// refinement — the engine-generic worker behind
/// [`ReceptionMap::compute_hierarchical`], with the same
/// [`Located`]-to-[`PixelLabel`] projection as
/// [`ReceptionMap::compute_with_engine`] (uncertain pixels label
/// silent).
///
/// The raster is bit-identical to the dense
/// [`ReceptionMap::compute_with_engine`] on the same backend; the
/// returned [`HierarchicalStats`] reports how little of it was paid for
/// per-pixel. Independent subtrees run on the work-stealing scheduler
/// of `sinr-core` (see the module docs' *Parallel execution*), hence
/// the `Sync` bound.
///
/// # Panics
///
/// Panics if either dimension is zero or the window is degenerate (zero
/// width or height), exactly like the dense path.
pub fn hierarchical_map<E: QueryEngine + Sync + ?Sized>(
    engine: &E,
    window: BBox,
    width: usize,
    height: usize,
) -> (ReceptionMap, HierarchicalStats) {
    assert!(
        width > 0 && height > 0,
        "raster dimensions must be positive"
    );
    // Zero-extent windows poison the pixel-centre arithmetic.
    assert_window(&window);
    let pixels = width * height;
    let (mut cells, (labels, stats)) = if pixels > MIN_TASK_PIXELS {
        // The buffer's first touch overlaps the refinement and the
        // batch, which record labels without touching it.
        std::thread::scope(|scope| {
            let resolved = scope.spawn(|| resolve(engine, &window, (width, height)));
            let cells = vec![PixelLabel::Silent; pixels];
            let resolved = resolved
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (cells, resolved)
        })
    } else {
        (
            vec![PixelLabel::Silent; pixels],
            resolve(engine, &window, (width, height)),
        )
    };
    paint(&mut cells, width, &labels);
    (Raster::from_cells(window, width, height, cells), stats)
}

impl ReceptionMap {
    /// Rasterises the SINR diagram by quadtree refinement: whole cells
    /// whose certified SINR interval lies strictly on one side of `β`
    /// are resolved from the certificate, and only boundary-straddling
    /// cells recurse down to pixel resolution — cost tracks zone
    /// *boundary length*, not window *area*, on megapixel grids.
    ///
    /// The pixels are bit-identical to [`ReceptionMap::compute`] on the
    /// same network; the stats report the evaluated fraction.
    pub fn compute_hierarchical(
        net: &Network,
        window: BBox,
        width: usize,
        height: usize,
    ) -> (Self, HierarchicalStats) {
        hierarchical_map(&net.query_engine(), window, width, height)
    }

    /// [`ReceptionMap::compute_hierarchical`] through a caller-supplied
    /// backend — the hierarchical counterpart of
    /// [`ReceptionMap::compute_with_engine`].
    pub fn compute_hierarchical_with_engine<E: QueryEngine + Sync + ?Sized>(
        engine: &E,
        window: BBox,
        width: usize,
        height: usize,
    ) -> (Self, HierarchicalStats) {
        hierarchical_map(engine, window, width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_matches_dense_and_prunes() {
        let net = sinr_core::gen::random_uniform_network(11, 160, 12.0, 0.01, 2.0).unwrap();
        let window = BBox::centered_square(12.0);
        let engine = net.query_engine();
        let dense = ReceptionMap::compute_with_engine(&engine, window, 128, 128);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(&engine, window, 128, 128);
        assert_eq!(dense, hier);
        assert_eq!(stats.pixels, 128 * 128);
        assert_eq!(
            stats.cells_evaluated + stats.certified_pixels,
            stats.pixels,
            "every pixel is either certified or evaluated"
        );
        assert!(
            stats.fraction() < 0.5,
            "refinement should certify most pixels, evaluated fraction {}",
            stats.fraction()
        );
    }

    /// The split only moves subtrees between threads: every label the
    /// certificates resolve, the unresolved list (in order) and the
    /// counters equal those of the one-thread recursion from the root.
    #[test]
    fn tasks_replay_the_serial_recursion() {
        // Dense enough, and in the first window close enough to zone
        // boundaries at task corners, that a task handed a fresh root
        // certificate instead of its chained parent changes the counters.
        let net = sinr_core::gen::random_uniform_network(7, 4096, 64.0, 0.01, 2.0).unwrap();
        let engine = sinr_core::SimdScan::new(&net);
        for (cx, cy, half) in [(-30.0, 20.0, 4.0), (0.0, 0.0, 6.0), (7.5, -3.0, 8.0)] {
            let window = BBox::new(
                Point::new(cx - half, cy - half),
                Point::new(cx + half, cy + half),
            );
            for (w, h) in [(1024, 1024), (1000, 600), (1024, 3), (3, 1024), (64, 64)] {
                let raster = Region::new(0, w, 0, h);
                let mut serial = Refiner::new(&engine, &window, (w, h));
                serial.refine(raster, None);
                let mut serial_cells = vec![PixelLabel::Silent; w * h];
                paint(&mut serial_cells, w, &serial.labels);
                let (labels, unresolved, stats) = refine_in_tasks(&engine, &window, (w, h));
                let mut cells = vec![PixelLabel::Silent; w * h];
                paint(&mut cells, w, &labels);
                let tag = format!("{window} at {w}×{h}");
                assert_eq!(serial.stats, stats, "{tag}");
                assert!(serial.unresolved == unresolved, "{tag}: unresolved differ");
                assert!(
                    serial.labels.pixels == labels.pixels,
                    "{tag}: pixels differ"
                );
                assert!(serial_cells == cells, "{tag}: labels differ");
            }
        }
    }

    #[test]
    fn tiny_rasters_match_dense() {
        let net =
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap();
        let engine = net.query_engine();
        for (w, h) in [(1, 1), (1, 7), (3, 2), (5, 5)] {
            let window = BBox::centered_square(4.0);
            let dense = ReceptionMap::compute_with_engine(&engine, window, w, h);
            let (hier, stats) =
                ReceptionMap::compute_hierarchical_with_engine(&engine, window, w, h);
            assert_eq!(dense, hier, "{w}×{h}");
            assert_eq!(stats.pixels, (w * h) as u64);
        }
    }
}
