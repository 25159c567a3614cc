//! The combined point-location structure `DS` of Theorem 3.
//!
//! One [`Qds`] per station plus a kd-tree over the stations. A query
//! point's only possible transmitter is its nearest station
//! (Observation 2.2: every zone lies strictly inside its station's
//! Voronoi cell), so `locate` is one nearest-neighbour search
//! (`O(log n)`) followed by one `O(1)` cell classification — matching the
//! paper's query bound. The structure's size is `O(n·ε⁻¹)` and the
//! preprocessing `O(n³·ε⁻¹)`: `O(n·ε⁻¹)` segment tests at `O(n²)` each.

use crate::brp::BrpError;
use crate::qds::{CellClass, Qds, QdsConfig};
use sinr_core::engine::{batch_map, LocateError, QueryEngine, SinrEvaluator, SyncError};
use sinr_core::{DeltaOp, Network, NetworkDelta, StationId};
use sinr_geometry::Point;
use sinr_voronoi::KdTree;
use std::sync::OnceLock;

// `Located` is the shared answer type of every `QueryEngine` backend; it
// lives in `sinr_core::engine` and is re-exported here for compatibility.
pub use sinr_core::engine::Located;

/// Errors from building a [`PointLocator`].
#[derive(Debug, Clone, PartialEq)]
pub enum PointLocError {
    /// Theorem 3 is stated for uniform power networks.
    NonUniformPower,
    /// Theorem 3 requires path loss `α = 2`.
    UnsupportedPathLoss(f64),
    /// Theorem 3 requires `β > 1`.
    ThresholdNotAboveOne(f64),
    /// A per-station build failed (unbounded zone or resource budget).
    Station(StationId, BrpError),
}

impl std::fmt::Display for PointLocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointLocError::NonUniformPower => {
                write!(f, "point location requires a uniform power network")
            }
            PointLocError::UnsupportedPathLoss(a) => {
                write!(f, "point location requires α = 2, got α = {a}")
            }
            PointLocError::ThresholdNotAboveOne(b) => {
                write!(f, "point location requires β > 1, got β = {b}")
            }
            PointLocError::Station(i, e) => write!(f, "building QDS for {i}: {e}"),
        }
    }
}

impl std::error::Error for PointLocError {}

/// The full data structure of Theorem 3: per-station zone maps plus a
/// nearest-station dispatcher.
///
/// ## Dynamic updates and per-station staleness
///
/// Under [`QueryEngine::apply`] the cheap parts — the SoA evaluator and
/// the kd-tree dispatcher — are brought up to date eagerly, while the
/// expensive per-station grid maps (`O(n²·ε⁻¹)` each to build) are
/// handled **lazily**: every station's map is marked stale (any
/// geometry or power change shifts interference globally, so every
/// `∂Hᵢ` moves) and rebuilt only when a query actually dispatches to
/// that station. A mobile workload whose queries concentrate around a
/// few stations therefore pays reconstruction only for the zones it
/// touches, instead of the full `O(n³·ε⁻¹)` rebuild.
///
/// If a lazy rebuild fails (unbounded zone, cell budget), queries for
/// that station degrade to the exact `O(n)` evaluator scan — exact
/// answers, never [`Located::Uncertain`], never wrong — until the next
/// successful sync. Power deltas that break the Theorem-3 uniform-power
/// precondition are rejected as [`SyncError::Unsupported`].
///
/// # Examples
///
/// ```
/// use sinr_core::{Network, StationId};
/// use sinr_geometry::Point;
/// use sinr_pointloc::{Located, PointLocator, QdsConfig};
///
/// let net = Network::uniform(vec![
///     Point::new(0.0, 0.0),
///     Point::new(6.0, 0.0),
///     Point::new(3.0, 5.0),
/// ], 0.0, 2.0).unwrap();
/// let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
///
/// // Far from everyone: silent, and the locator knows it.
/// assert_eq!(ds.locate(Point::new(100.0, -80.0)), Located::Silent);
/// ```
#[derive(Debug, Clone)]
pub struct PointLocator {
    /// Per-station zone maps. An unset cell is a zone invalidated by a
    /// delta and not yet dispatched to; it is (re)built on first use
    /// from `net`. `Err` records a failed lazy rebuild — queries then
    /// degrade to the exact evaluator scan for that station.
    maps: Vec<OnceLock<Result<Qds, BrpError>>>,
    tree: KdTree,
    /// Mirror of the source network's current state, kept in step by
    /// `apply` — what lazy zone rebuilds are computed from.
    net: Network,
    config: QdsConfig,
    /// Retained for `QueryEngine::sinr_batch` (the grid structure answers
    /// zone membership, not SINR values) and for the staleness guard.
    eval: SinrEvaluator,
}

impl PointLocator {
    /// Builds the structure: one [`Qds`] per station (`O(n³·ε⁻¹)` total
    /// preprocessing) plus the kd-tree dispatcher (`O(n log n)`).
    ///
    /// # Errors
    ///
    /// * [`PointLocError::NonUniformPower`] /
    ///   [`PointLocError::UnsupportedPathLoss`] /
    ///   [`PointLocError::ThresholdNotAboveOne`] — Theorem 3
    ///   preconditions;
    /// * [`PointLocError::Station`] — a per-station reconstruction failed.
    pub fn build(net: &Network, config: &QdsConfig) -> Result<Self, PointLocError> {
        Self::check_preconditions(net)?;
        let mut maps = Vec::with_capacity(net.len());
        for i in net.ids() {
            let qds = Qds::build(net, i, config).map_err(|e| PointLocError::Station(i, e))?;
            maps.push(OnceLock::from(Ok(qds)));
        }
        Ok(PointLocator {
            maps,
            tree: KdTree::build(net.positions().to_vec()),
            net: net.clone(),
            config: *config,
            eval: SinrEvaluator::new(net),
        })
    }

    fn check_preconditions(net: &Network) -> Result<(), PointLocError> {
        if !net.is_uniform_power() {
            return Err(PointLocError::NonUniformPower);
        }
        if net.alpha() != 2.0 {
            return Err(PointLocError::UnsupportedPathLoss(net.alpha()));
        }
        if net.beta() <= 1.0 {
            return Err(PointLocError::ThresholdNotAboveOne(net.beta()));
        }
        Ok(())
    }

    /// The `ε` the structure was built with.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// True when the structure covers no stations (never for a built one).
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// The number of stations whose zone map is currently *stale*:
    /// invalidated by an applied delta and not yet lazily rebuilt
    /// (queries dispatching to such a station pay the rebuild on first
    /// touch). 0 for a freshly built or fully exercised structure.
    pub fn stale_zones(&self) -> usize {
        self.maps.iter().filter(|m| m.get().is_none()).count()
    }

    /// The station's zone map, building it now if it was invalidated by
    /// a delta. `None` when (re)construction fails for this station
    /// (queries then degrade to the exact scan).
    fn map_for(&self, i: usize) -> Option<&Qds> {
        self.maps[i]
            .get_or_init(|| Qds::build(&self.net, StationId(i), &self.config))
            .as_ref()
            .ok()
    }

    /// Total number of `T?` cells across all stations (the structure's
    /// dominant size term, `O(n·ε⁻¹)`). Forces any lazily invalidated
    /// zone to rebuild; stations whose rebuild failed contribute 0.
    pub fn total_question_cells(&self) -> usize {
        (0..self.maps.len())
            .map(|i| self.map_for(i).map_or(0, Qds::question_cell_count))
            .sum()
    }

    /// Locates a query point: `O(log n)` nearest-station dispatch plus an
    /// `O(1)` cell classification (plus a one-off zone rebuild when the
    /// dispatched station's map was invalidated by an applied delta).
    ///
    /// # Panics
    ///
    /// Panics when the source network has mutated past this engine's
    /// revision (apply the missed deltas or
    /// [`sync`](QueryEngine::sync)) — a stale locator never answers.
    pub fn locate(&self, p: Point) -> Located {
        self.eval.assert_fresh();
        let Some((nearest, dist)) = self.tree.nearest(p) else {
            return Located::Silent;
        };
        if dist == 0.0 {
            // Exactly at a station: in its zone by definition (the {sᵢ}
            // clause), even for degenerate zones.
            return Located::Reception(StationId(nearest));
        }
        match self.map_for(nearest) {
            Some(qds) => match qds.classify(p) {
                CellClass::Plus => Located::Reception(StationId(nearest)),
                CellClass::Question => Located::Uncertain(StationId(nearest)),
                CellClass::Minus => Located::Silent,
            },
            // Zone reconstruction failed: answer exactly instead.
            None => self.eval.locate(p),
        }
    }

    /// Ground-truth comparison: evaluates the SINR model directly
    /// (`O(n)`) — the baseline the data structure accelerates.
    pub fn locate_naive(&self, net: &Network, p: Point) -> Option<StationId> {
        debug_assert_eq!(net.positions(), self.net.positions());
        net.heard_at(p)
    }
}

impl QueryEngine for PointLocator {
    fn locate(&self, p: Point) -> Located {
        PointLocator::locate(self, p)
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        // The engine's work-stealing batch driver: QDS queries are
        // `O(log n)` when the grid answers and `O(n)` when a query
        // misses every per-zone structure, so skewed batches rebalance
        // across threads once their measured work pays for them.
        // Per-point answers are exactly `locate`'s (only the thread
        // changes); concurrent first-touch rebuilds of the same
        // invalidated zone are serialized by the per-station `OnceLock`.
        batch_map(points, out, |p| PointLocator::locate(self, *p));
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.eval.sinr_batch(i, points, out);
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.eval.freshness()
    }

    fn revision(&self) -> u64 {
        self.eval.revision()
    }

    fn is_stale(&self) -> bool {
        self.eval.is_stale()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        // Theorem 3 is stated for uniform power; a delta that leaves the
        // network non-uniform cannot be represented here.
        if !delta.uniform_after() {
            return Err(SyncError::Unsupported(
                "the Theorem-3 locator requires uniform power".into(),
            ));
        }
        self.eval.apply(delta)?;
        // Mirror the op onto the stored network copy (same validation
        // already passed upstream, so failures are impossible here).
        let mirrored = match delta.op() {
            DeltaOp::Add {
                position, power, ..
            } => self.net.add_station(*position, *power).map(|_| ()),
            DeltaOp::Remove { id, .. } => self.net.remove_station(*id).map(|_| ()),
            DeltaOp::Move { id, to, .. } => self.net.move_station(*id, *to).map(|_| ()),
            DeltaOp::SetPower { id, to, .. } => self.net.set_power(*id, *to).map(|_| ()),
        };
        mirrored.map_err(|e| SyncError::Unsupported(format!("mirror op failed: {e}")))?;
        // Eager, cheap: the proximity dispatcher — but only geometry ops
        // can move a site, so power deltas (which this backend only
        // accepts when they keep the network uniform, i.e. 1 → 1) skip
        // the O(n log n) rebuild entirely.
        let geometry_changed = !matches!(delta.op(), DeltaOp::SetPower { .. });
        // Lazy, expensive: every zone's boundary moved (interference is
        // global), so all per-station maps are stale — they rebuild on
        // first dispatch. Exception: a delta that changes nothing
        // physically (1 → 1 power on a uniform network, a move to the
        // same point) moves no boundary.
        let physically_noop = matches!(
            delta.op(),
            DeltaOp::SetPower { from, to, .. } if from == to
        ) || matches!(delta.op(), DeltaOp::Move { from, to, .. } if from == to);
        if geometry_changed && !physically_noop {
            self.tree = KdTree::build(self.net.positions().to_vec());
        }
        if !physically_noop {
            self.maps = (0..self.net.len()).map(|_| OnceLock::new()).collect();
        }
        Ok(())
    }

    fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
        // Lazy sync: validate, adopt the network, invalidate everything;
        // zones rebuild on first dispatch (use `build` for an eager
        // all-zones construction with per-station error reporting).
        Self::check_preconditions(net).map_err(|e| SyncError::Unsupported(e.to_string()))?;
        self.net = net.clone();
        self.eval.sync(net);
        self.tree = KdTree::build(net.positions().to_vec());
        self.maps = (0..net.len()).map(|_| OnceLock::new()).collect();
        Ok(())
    }

    fn freeze(&mut self) {
        // `self.net` is already a private mirror (its epoch cell is this
        // locator's own), so detaching the evaluator is the whole job;
        // lazy zone rebuilds keep reading the mirror as before.
        self.eval.freeze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net3() -> Network {
        Network::uniform(
            vec![
                Point::new(0.0, 0.0),
                Point::new(6.0, 0.0),
                Point::new(3.0, 5.0),
            ],
            0.0,
            2.0,
        )
        .unwrap()
    }

    #[test]
    fn preconditions_enforced() {
        let nonuniform = Network::builder()
            .station(Point::ORIGIN)
            .station_with_power(Point::new(3.0, 0.0), 2.0)
            .threshold(2.0)
            .build()
            .unwrap();
        assert_eq!(
            PointLocator::build(&nonuniform, &QdsConfig::default()).unwrap_err(),
            PointLocError::NonUniformPower
        );
        let alpha4 = Network::builder()
            .station(Point::ORIGIN)
            .station(Point::new(3.0, 0.0))
            .threshold(2.0)
            .path_loss(4.0)
            .build()
            .unwrap();
        assert!(matches!(
            PointLocator::build(&alpha4, &QdsConfig::default()).unwrap_err(),
            PointLocError::UnsupportedPathLoss(_)
        ));
        let beta1 = Network::uniform(vec![Point::ORIGIN, Point::new(3.0, 0.0)], 0.0, 1.0).unwrap();
        assert!(matches!(
            PointLocator::build(&beta1, &QdsConfig::default()).unwrap_err(),
            PointLocError::ThresholdNotAboveOne(_)
        ));
    }

    #[test]
    fn locate_agrees_with_ground_truth() {
        let net = net3();
        let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.25)).unwrap();
        let mut uncertain = 0usize;
        let mut total = 0usize;
        for a in -30..=90 {
            for b in -40..=90 {
                let p = Point::new(a as f64 * 0.1, b as f64 * 0.1);
                total += 1;
                match ds.locate(p) {
                    Located::Reception(i) => {
                        assert!(net.is_heard(i, p), "claimed reception of {i} at {p}");
                    }
                    Located::Silent => {
                        assert_eq!(net.heard_at(p), None, "claimed silence at {p}");
                    }
                    Located::Uncertain(_) => uncertain += 1,
                }
            }
        }
        // The uncertain band must be a small minority of the window.
        assert!(
            uncertain * 10 < total,
            "{uncertain}/{total} uncertain answers"
        );
    }

    #[test]
    fn station_positions_locate_as_reception() {
        let net = net3();
        let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
        for i in net.ids() {
            assert_eq!(ds.locate(net.position(i)), Located::Reception(i));
        }
    }

    #[test]
    fn colocated_station_zone_is_the_point_itself() {
        let net = Network::uniform(
            vec![Point::ORIGIN, Point::ORIGIN, Point::new(4.0, 0.0)],
            0.0,
            2.0,
        )
        .unwrap();
        let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
        // At the shared location: reception by one of the co-located pair
        // (the {sᵢ} clause — the kd-tree picks one of the zero-distance
        // sites).
        match ds.locate(Point::ORIGIN) {
            Located::Reception(i) => assert!(i.index() <= 1),
            other => panic!("expected reception at the shared site, got {other:?}"),
        }
        // Near (but not at) the pair: silent — they jam each other.
        assert_eq!(ds.locate(Point::new(0.3, 0.0)), Located::Silent);
    }

    #[test]
    fn size_scales_inverse_epsilon() {
        let net = net3();
        let small = PointLocator::build(&net, &QdsConfig::with_epsilon(0.5)).unwrap();
        let large = PointLocator::build(&net, &QdsConfig::with_epsilon(0.1)).unwrap();
        assert!(large.total_question_cells() > small.total_question_cells());
        assert_eq!(small.len(), 3);
        assert_eq!(small.epsilon(), 0.5);
    }

    #[test]
    fn locate_naive_baseline() {
        let net = net3();
        let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
        assert_eq!(
            ds.locate_naive(&net, Point::new(0.1, 0.0)),
            Some(StationId(0))
        );
        assert_eq!(ds.locate_naive(&net, Point::new(3.0, 1.8)), None);
    }
}
