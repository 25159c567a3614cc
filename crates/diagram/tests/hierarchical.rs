//! Differential pinning of the hierarchical (quadtree-refined) raster.
//!
//! The contract under test: `ReceptionMap::compute_hierarchical_with_engine`
//! is **bit-identical** to the dense `ReceptionMap::compute_with_engine`
//! on the *same* backend — for every backend and SIMD kernel, for
//! hostile windows (degenerate-adjacent co-located stations, overflow
//! windows next to huge-coordinate stations, windows far outside every
//! zone), and for thresholds above/below every station's reach. The
//! certificates may only change *where* pixels are answered (wholesale
//! vs per-point), never *what* the answer is.
//!
//! Plus the interval-soundness property: every sampled SINR value lies
//! inside the cell's certified bracket, chained or not.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{BoxedEngine, ExactScan, QueryEngine, VoronoiAssisted};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::{gen, Network, SinrEvaluator, StationId};
use sinr_diagram::ReceptionMap;
use sinr_geometry::{BBox, Point};
use sinr_pointloc::{PointLocator, QdsConfig};

/// Every backend the workspace ships, boxed behind the trait object the
/// server serves through (the Theorem-3 locator is added by callers that
/// can build one). `Sync`: the refinement runs independent subtrees on
/// the work-stealing scheduler.
fn backends(net: &Network) -> Vec<(String, Box<dyn QueryEngine + Sync>)> {
    let mut engines: Vec<(String, Box<dyn QueryEngine + Sync>)> = vec![
        ("ExactScan".into(), Box::new(ExactScan::new(net))),
        (
            "VoronoiAssisted".into(),
            Box::new(VoronoiAssisted::new(net)),
        ),
        (
            "BoxedEngine".into(),
            Box::new(BoxedEngine::new("exact_scan", ExactScan::new(net))),
        ),
    ];
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        engines.push((
            format!("SimdScan/{kernel:?}"),
            Box::new(SimdScan::with_kernel(SinrEvaluator::new(net), kernel)),
        ));
    }
    engines
}

fn assert_hier_equals_dense(net: &Network, window: BBox, width: usize, height: usize, tag: &str) {
    for (name, engine) in backends(net) {
        let dense = ReceptionMap::compute_with_engine(engine.as_ref(), window, width, height);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(engine.as_ref(), window, width, height);
        assert_eq!(
            dense, hier,
            "{tag}: hierarchical ≠ dense for {name} over {window} at {width}×{height}"
        );
        assert_eq!(stats.pixels, (width * height) as u64, "{tag}: {name}");
        assert_eq!(
            stats.cells_evaluated + stats.certified_pixels,
            stats.pixels,
            "{tag}: {name}: pixel accounting"
        );
    }
    // The approximate Theorem-3 locator has no certificates: the
    // hierarchical path must degrade to exactly the dense raster. (Its
    // boundary reconstruction asserts on overflow-scale coordinates, so
    // only modest networks exercise this leg.)
    let modest = net
        .ids()
        .all(|i| net.position(i).x.abs() < 1e6 && net.position(i).y.abs() < 1e6);
    // The locator build is also far too slow for large station counts
    // in debug builds — the certificate contract it pins (None ⇒
    // dense-equivalent) is station-count-independent anyway.
    if !modest || net.len() > 24 {
        return;
    }
    if let Ok(qds) = PointLocator::build(net, &QdsConfig::with_epsilon(0.2)) {
        let dense = ReceptionMap::compute_with_engine(&qds, window, width, height);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(&qds, window, width, height);
        assert_eq!(dense, hier, "{tag}: Qds locator");
        assert_eq!(
            (
                stats.certificates,
                stats.certified_pixels,
                stats.cells_evaluated
            ),
            (0, 0, stats.pixels),
            "{tag}: a certificate-less backend cannot certify pixels"
        );
    }
}

#[test]
fn hierarchical_equals_dense_across_backends() {
    let nets = [
        (
            "uniform-beta2",
            gen::random_uniform_network(3, 150, 10.0, 0.0, 2.0).unwrap(),
        ),
        (
            "uniform-noisy-beta04",
            gen::random_uniform_network(4, 40, 8.0, 0.05, 0.4).unwrap(),
        ),
        (
            "nonuniform",
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(-1.0, 4.0), 0.5)
                .station_with_power(Point::new(2.0, -3.0), 1.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
        ),
        (
            "alpha4",
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .station(Point::new(-3.0, 2.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
        ),
    ];
    for (tag, net) in &nets {
        assert_hier_equals_dense(net, BBox::centered_square(9.0), 96, 96, tag);
        // Non-square raster + off-centre window.
        let window = BBox::new(Point::new(-7.0, -2.0), Point::new(5.0, 3.0));
        assert_hier_equals_dense(net, window, 60, 33, tag);
    }
}

#[test]
fn hostile_windows_degenerate_adjacent() {
    // Co-located pair (its coincidence point forces ∞ envelopes in any
    // containing cell) plus a normal station.
    let net = Network::uniform(
        vec![Point::ORIGIN, Point::ORIGIN, Point::new(3.0, 0.0)],
        0.0,
        2.0,
    )
    .unwrap();
    // Window centred exactly on the co-located pair…
    assert_hier_equals_dense(&net, BBox::centered_square(2.0), 33, 33, "colocated-center");
    // …and a window whose corner touches it.
    let window = BBox::new(Point::ORIGIN, Point::new(4.0, 4.0));
    assert_hier_equals_dense(&net, window, 32, 32, "colocated-corner");
    // Stations exactly on pixel centres: a 2-station net over a window
    // chosen so both stations are sampled (coincident query points take
    // the evaluators' special-case branches).
    let net =
        Network::uniform(vec![Point::new(-0.5, -0.5), Point::new(0.5, 0.5)], 0.0, 2.0).unwrap();
    assert_hier_equals_dense(&net, BBox::centered_square(1.0), 2, 2, "stations-on-pixels");
}

#[test]
fn hostile_windows_nonfinite_adjacent() {
    // Huge finite coordinates: squared distances overflow to ∞, rounded
    // energies collapse to 0 — every certificate degenerates but must
    // never make a wrong uniform claim.
    let net = Network::uniform(
        vec![
            Point::new(1e154, 0.0),
            Point::new(-1e154, 0.0),
            Point::new(0.0, 3.0),
        ],
        0.01,
        2.0,
    )
    .unwrap();
    assert_hier_equals_dense(&net, BBox::centered_square(6.0), 48, 48, "huge-stations");
    // Window itself at overflow scale, stations tiny in comparison.
    let window = BBox::new(Point::new(1e153, 1e153), Point::new(2e153, 2e153));
    assert_hier_equals_dense(&net, window, 16, 16, "overflow-window");
}

#[test]
fn beta_above_and_below_every_reach() {
    let pts = vec![
        Point::new(-2.0, 0.0),
        Point::new(2.0, 0.0),
        Point::new(0.0, 3.0),
    ];
    // β so large nobody is heard anywhere (noise floors every test).
    let deaf = Network::uniform(pts.clone(), 0.5, 1e12).unwrap();
    assert_hier_equals_dense(&deaf, BBox::centered_square(5.0), 64, 64, "beta-huge");
    // β so small everyone's zone is huge: the window splits between
    // stations with almost no silent area.
    let loud = Network::uniform(pts, 0.0, 1e-6).unwrap();
    assert_hier_equals_dense(&loud, BBox::centered_square(5.0), 64, 64, "beta-tiny");
    // Window entirely outside every zone (deep silence, certified at
    // the root or near it).
    let net =
        Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 2.0).unwrap();
    // At 1024² the raster is large enough to split into tasks; the split
    // only applies to regions the serial top leaves `Mixed`.
    let window = BBox::new(Point::new(500.0, 500.0), Point::new(520.0, 520.0));
    for side in [64, 1024] {
        for (name, engine) in backends(&net) {
            let (hier, stats) =
                ReceptionMap::compute_hierarchical_with_engine(engine.as_ref(), window, side, side);
            let dense = ReceptionMap::compute_with_engine(engine.as_ref(), window, side, side);
            assert_eq!(dense, hier, "far-silent {side}²: {name}");
            assert_eq!(
                (stats.certificates, stats.cells_evaluated),
                (1, 0),
                "far-silent {side}² window must certify at the root for {name}"
            );
        }
    }
}

/// Rasters large enough that the refinement splits into parallel tasks
/// — square, non-square, and both strip orientations (strips subdivide
/// along their long axis only, so their tasks are strip segments):
/// still bit-identical to dense on every backend and kernel.
#[test]
fn rasters_crossing_the_task_split_equal_dense() {
    let net = gen::random_uniform_network(21, 32, 10.0, 0.01, 2.0).unwrap();
    let window = BBox::new(Point::new(-6.0, -5.0), Point::new(5.0, 6.0));
    for (width, height) in [(1024, 1024), (1000, 600), (2048, 3), (3, 2048)] {
        assert_hier_equals_dense(
            &net,
            window,
            width,
            height,
            &format!("split {width}×{height}"),
        );
    }
    // A network small enough for the helper's certificate-less QDS leg,
    // on a raster above the 4096-pixel task size (the QDS build and
    // dense pass are too slow in debug builds for the rasters above).
    let small = gen::random_uniform_network(23, 6, 8.0, 0.02, 1.5).unwrap();
    assert_hier_equals_dense(
        &small,
        BBox::centered_square(8.0),
        160,
        128,
        "qds above split",
    );
}

/// The counters describe the refinement tree, which the thread
/// placement of its subtrees must not change: repeated calls agree
/// exactly, and every pixel is accounted for once.
#[test]
fn stats_are_identical_across_repeated_calls() {
    let net = gen::random_uniform_network(22, 48, 10.0, 0.01, 2.0).unwrap();
    let window = BBox::centered_square(10.0);
    for (name, engine) in backends(&net) {
        let (first_map, first) =
            ReceptionMap::compute_hierarchical_with_engine(engine.as_ref(), window, 1024, 1024);
        assert_eq!(
            first.cells_evaluated + first.certified_pixels,
            first.pixels,
            "{name}: pixel accounting"
        );
        assert!(first.certificates > 1, "{name}: the window must refine");
        for _ in 0..2 {
            let (map, stats) =
                ReceptionMap::compute_hierarchical_with_engine(engine.as_ref(), window, 1024, 1024);
            assert_eq!(stats, first, "{name}: stats changed between calls");
            assert_eq!(map, first_map, "{name}: raster changed between calls");
        }
    }
}

/// Random small networks, uniform and non-uniform power.
fn networks() -> impl Strategy<Value = Network> {
    (2usize..7, any::<u64>(), any::<bool>()).prop_map(|(n, seed, uniform)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = Vec::new();
        let mut guard = 0;
        while pts.len() < n && guard < 10_000 {
            guard += 1;
            let cand = Point::new(rng.gen_range(-5.0..=5.0), rng.gen_range(-5.0..=5.0));
            if pts.iter().all(|p| p.dist(cand) >= 0.6) {
                pts.push(cand);
            }
        }
        let mut b = Network::builder().background_noise(0.02).threshold(1.2);
        for p in pts {
            if uniform {
                b = b.station(p);
            } else {
                b = b.station_with_power(p, rng.gen_range(0.5..2.5));
            }
        }
        b.build().expect("≥ 2 separated stations")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cell-interval soundness: for random cells and random sample
    /// points inside them, every scalar SINR value lies inside the
    /// certified interval — both for root certificates and for children
    /// chained through a containing parent.
    #[test]
    fn certified_intervals_contain_sampled_sinr(
        net in networks(),
        seed in any::<u64>(),
        cx in -6.0f64..6.0,
        cy in -6.0f64..6.0,
        half in 0.01f64..4.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let engine = ExactScan::new(&net);
        let eval = engine.evaluator();
        let min = Point::new(cx - half, cy - half);
        let max = Point::new(cx + half, cy + half);
        let root = engine
            .sinr_bounds_cell(min, max, None)
            .expect("exact backends certify");
        // A chained child: the inner quarter of the cell.
        let cmin = Point::new(cx - 0.5 * half, cy - 0.5 * half);
        let cmax = Point::new(cx + 0.5 * half, cy + 0.5 * half);
        let child = engine
            .sinr_bounds_cell(cmin, cmax, Some(&root))
            .expect("exact backends certify");
        for _ in 0..24 {
            let p = Point::new(
                rng.gen_range(min.x..=max.x),
                rng.gen_range(min.y..=max.y),
            );
            let in_child = (cmin.x..=cmax.x).contains(&p.x) && (cmin.y..=cmax.y).contains(&p.y);
            for j in 0..net.len() {
                let v = eval.sinr(StationId(j), p);
                let iv = root.sinr(StationId(j));
                prop_assert!(
                    iv.contains(v),
                    "root: sinr {} of station {} at {} outside [{}, {}]",
                    v, j, p, iv.lo, iv.hi
                );
                if in_child {
                    let iv = child.sinr(StationId(j));
                    prop_assert!(
                        iv.contains(v),
                        "child: sinr {} of station {} at {} outside [{}, {}]",
                        v, j, p, iv.lo, iv.hi
                    );
                }
            }
        }
    }

    /// Differential under proptest: random network, random window,
    /// random raster shape — hierarchical ≡ dense on the recommended
    /// engine.
    #[test]
    fn hierarchical_equals_dense_random(
        net in networks(),
        cx in -4.0f64..4.0,
        cy in -4.0f64..4.0,
        half in 0.5f64..8.0,
        width in 1usize..80,
        height in 1usize..80,
    ) {
        let window = BBox::new(
            Point::new(cx - half, cy - half),
            Point::new(cx + half, cy + half),
        );
        let engine = net.query_engine();
        let dense = ReceptionMap::compute_with_engine(&engine, window, width, height);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(&engine, window, width, height);
        prop_assert_eq!(dense, hier);
        prop_assert_eq!(stats.cells_evaluated + stats.certified_pixels, stats.pixels);
    }
}
