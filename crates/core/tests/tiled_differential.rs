//! The tiled executor's no-silent-reorder contract.
//!
//! PR 5's spatially-coherent tiled batch executor (`sinr_core::tile`)
//! reorders *scheduling* — Morton tiles, shared candidate pruning,
//! certified decisions — but must never reorder or change *answers*.
//! These suites pin exactly that, at scales where the pruned path
//! actually engages (`TILED_MIN_STATIONS` stations and
//! `PARALLEL_BATCH_THRESHOLD` points and beyond):
//!
//! * **tiled ≡ serial** — `locate_batch` answers are bit-identical to a
//!   serial loop of `locate` calls, for every backend and every
//!   supported SIMD kernel (including `avx512` where the CPU has it);
//! * **permutation invariance** — running the same point set through
//!   `locate_batch`/`sinr_batch` in any input order yields bit-identical
//!   per-point answers (`f64` compared by bits);
//! * the certified executor driven directly with hostile configs (tiny
//!   tiles, forced engagement) still matches the serial kernel, and its
//!   stats prove the pruned path ran (candidate sets strictly smaller
//!   than the network);
//! * non-finite query points take the wholesale-fallback tile and still
//!   match the serial path.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::PARALLEL_BATCH_THRESHOLD;
use sinr_core::engine::{ExactScan, Located, QueryEngine, VoronoiAssisted};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::tile::{self, Select, TileConfig, TILED_MIN_STATIONS};
use sinr_core::{gen, Network, SinrEvaluator, StationId};
use sinr_geometry::Point;

/// A random network big enough to engage the pruned tiled path.
fn big_network(seed: u64, n: usize, uniform: bool) -> Network {
    let half = 2.0 * (n as f64).sqrt();
    if uniform {
        gen::random_uniform_network(seed, n, half, 0.01, 2.0).unwrap()
    } else {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = Network::builder().background_noise(0.01).threshold(1.6);
        let mut placed = 0;
        while placed < n {
            let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
            b = b.station_with_power(p, rng.gen_range(0.5..2.0));
            placed += 1;
        }
        b.build().unwrap()
    }
}

/// A query batch mixing area coverage, station positions (the `{sᵢ}`
/// clause and `d² = 0` kernels), near-boundary jitter and duplicates.
fn query_batch(net: &Network, len: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let half = 2.2 * (net.len() as f64).sqrt();
    let mut pts = Vec::with_capacity(len);
    for i in net.ids().take(64) {
        let s = net.position(i);
        pts.push(s);
        // Near-station jitter lands inside/near zones.
        pts.push(Point::new(s.x + rng.gen_range(-0.5..0.5), s.y + 1e-3));
    }
    while pts.len() < len {
        pts.push(Point::new(
            rng.gen_range(-half..half),
            rng.gen_range(-half..half),
        ));
    }
    pts.truncate(len);
    pts
}

fn assert_tiled_equals_serial<E: QueryEngine>(name: &str, engine: &E, points: &[Point]) {
    let mut batch = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut batch);
    for (p, got) in points.iter().zip(&batch) {
        assert_eq!(
            *got,
            engine.locate(*p),
            "{name}: batch/serial mismatch at {p}"
        );
    }
}

#[test]
fn tiled_locate_batch_equals_serial_for_every_backend_and_kernel() {
    for (seed, uniform) in [(11u64, true), (12, false)] {
        let net = big_network(seed, TILED_MIN_STATIONS + 72, uniform);
        let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 513, seed ^ 0xFF);
        assert_tiled_equals_serial("ExactScan", &ExactScan::new(&net), &points);
        assert_tiled_equals_serial("VoronoiAssisted", &VoronoiAssisted::new(&net), &points);
        for kernel in SimdKernel::ALL {
            if !kernel.is_supported() {
                continue;
            }
            let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
            assert_tiled_equals_serial(kernel.name(), &simd, &points);
        }
    }
}

#[test]
fn tiled_locate_batch_handles_non_finite_points() {
    let net = big_network(21, TILED_MIN_STATIONS + 8, true);
    let mut points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 64, 0xA5);
    points[17] = Point::new(f64::NAN, 0.0);
    points[PARALLEL_BATCH_THRESHOLD] = Point::new(f64::INFINITY, -3.0);
    points[100] = Point::new(2.0, f64::NEG_INFINITY);
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        let engine = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
        assert_tiled_equals_serial(kernel.name(), &engine, &points);
    }
    assert_tiled_equals_serial("ExactScan", &ExactScan::new(&net), &points);
}

#[test]
fn locate_batch_is_permutation_invariant_for_every_backend_and_kernel() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(777);
    for uniform in [true, false] {
        let net = big_network(31 + uniform as u64, TILED_MIN_STATIONS + 40, uniform);
        let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 321, 0xBEEF);
        // A deterministic shuffle of the same point set.
        let mut perm: Vec<usize> = (0..points.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Point> = perm.iter().map(|&i| points[i]).collect();

        let engines: Vec<(String, Box<dyn QueryEngine>)> = {
            let mut v: Vec<(String, Box<dyn QueryEngine>)> = vec![
                ("exact_scan".into(), Box::new(ExactScan::new(&net))),
                (
                    "voronoi_assisted".into(),
                    Box::new(VoronoiAssisted::new(&net)),
                ),
            ];
            for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
                v.push((
                    format!("simd_{}", kernel.name()),
                    Box::new(SimdScan::with_kernel(SinrEvaluator::new(&net), kernel)),
                ));
            }
            v
        };
        for (name, engine) in &engines {
            let mut base = vec![Located::Silent; points.len()];
            engine.locate_batch(&points, &mut base);
            let mut shuf = vec![Located::Silent; points.len()];
            engine.locate_batch(&shuffled, &mut shuf);
            for (slot, &orig) in perm.iter().enumerate() {
                assert_eq!(
                    shuf[slot], base[orig],
                    "{name}: ordering changed the answer for point {orig} ({})",
                    points[orig]
                );
            }
        }
    }
}

#[test]
fn sinr_batch_is_permutation_invariant_bit_for_bit() {
    let net = big_network(41, TILED_MIN_STATIONS + 16, true);
    let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 100, 0xCAFE);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut perm: Vec<usize> = (0..points.len()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let shuffled: Vec<Point> = perm.iter().map(|&i| points[i]).collect();
    let eval = SinrEvaluator::new(&net);
    let station = StationId(3);
    let mut base = vec![0.0f64; points.len()];
    eval.sinr_batch(station, &points, &mut base);
    let mut shuf = vec![0.0f64; points.len()];
    eval.sinr_batch(station, &shuffled, &mut shuf);
    for (slot, &orig) in perm.iter().enumerate() {
        assert_eq!(
            shuf[slot].to_bits(),
            base[orig].to_bits(),
            "sinr value for point {orig} changed under reordering"
        );
        // And bit-identical to the serial call.
        assert_eq!(
            base[orig].to_bits(),
            eval.sinr(station, points[orig]).to_bits()
        );
    }
}

/// Driving the executor directly with hostile configs: tiny tiles and
/// forced engagement on small batches must still match the serial
/// kernel bit-for-bit, and the stats must show real pruning.
#[test]
fn direct_executor_matches_serial_under_custom_configs() {
    let net = big_network(51, 300, true);
    let eval = SinrEvaluator::new(&net);
    let points = query_batch(&net, 1500, 0xD00D);
    for tile_points in [1usize, 7, 64, 512, 4096] {
        let cfg = TileConfig {
            tile_points,
            min_stations: 2,
            min_points: 1,
        };
        let mut out = vec![Located::Silent; points.len()];
        let stats = tile::locate_batch_tiled(
            &eval,
            SimdKernel::detect(),
            Select::MaxEnergy,
            &points,
            &mut out,
            &cfg,
            |p| eval.locate(p),
        );
        assert_eq!(stats.points as usize, points.len());
        assert_eq!(stats.tiles as usize, points.len().div_ceil(tile_points));
        for (p, got) in points.iter().zip(&out) {
            assert_eq!(*got, eval.locate(*p), "tile_points={tile_points} at {p}");
        }
        // With 1500 points, tiles of ≤ 64 points have bounding boxes
        // small enough (relative to the window) that pruning must
        // engage; bigger tiles may legitimately cover too much area.
        if tile_points <= 64 {
            assert!(stats.pruned_tiles > 0, "no tile pruned at {tile_points}");
            let mean = stats.mean_candidates().unwrap();
            assert!(
                mean < net.len() as f64 * 0.9,
                "candidate sets not smaller than the network: {mean}"
            );
        }
    }
}

/// Nearest-mode certification against the kd-tree serial path, driven
/// directly (uniform power only — the Observation-2.2 precondition).
#[test]
fn direct_executor_nearest_matches_tree_path() {
    let net = big_network(61, 256, true);
    let engine = VoronoiAssisted::new(&net);
    let eval = SinrEvaluator::new(&net);
    let points = query_batch(&net, 3000, 0xF00);
    let cfg = TileConfig {
        tile_points: 128,
        min_stations: 2,
        min_points: 1,
    };
    let mut out = vec![Located::Silent; points.len()];
    tile::locate_batch_tiled(
        &eval,
        SimdKernel::detect(),
        Select::Nearest,
        &points,
        &mut out,
        &cfg,
        |p| engine.locate(p),
    );
    for (p, got) in points.iter().zip(&out) {
        assert_eq!(*got, engine.locate(*p), "nearest-mode mismatch at {p}");
    }
}

/// Max-energy-mode certification against the *weighted* kd-tree serial
/// path, driven directly on a non-uniform network — the power-diagram
/// analogue of the nearest-mode test above: the tiled executor's
/// candidate argmax and the tree's best-first `strongest` walk must
/// select the same dominator everywhere.
#[test]
fn direct_executor_max_energy_matches_weighted_tree_path() {
    let net = big_network(62, 256, false);
    assert!(!net.is_uniform_power());
    let engine = VoronoiAssisted::new(&net);
    let eval = SinrEvaluator::new(&net);
    let points = query_batch(&net, 3000, 0xF01);
    let cfg = TileConfig {
        tile_points: 128,
        min_stations: 2,
        min_points: 1,
    };
    let mut out = vec![Located::Silent; points.len()];
    tile::locate_batch_tiled(
        &eval,
        SimdKernel::detect(),
        Select::MaxEnergy,
        &points,
        &mut out,
        &cfg,
        |p| engine.locate(p),
    );
    for (p, got) in points.iter().zip(&out) {
        assert_eq!(*got, engine.locate(*p), "max-energy-mode mismatch at {p}");
    }
}

/// Drives the executor directly and asserts every answer equals
/// `serial` at the same point; returns the run's stats.
fn assert_direct_equals_serial<F: Fn(Point) -> Located + Sync>(
    name: &str,
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    select: Select,
    points: &[Point],
    cfg: &TileConfig,
    serial: F,
) -> tile::TileStats {
    let mut out = vec![Located::Silent; points.len()];
    let stats = tile::locate_batch_tiled(eval, kernel, select, points, &mut out, cfg, &serial);
    for (p, got) in points.iter().zip(&out) {
        assert_eq!(*got, serial(*p), "{name}: tiled/serial mismatch at {p}");
    }
    assert!(
        stats.escalated_points <= stats.certified_points,
        "{name}: {stats:?}"
    );
    stats
}

/// Forced engagement at any tile size.
fn forced(tile_points: usize) -> TileConfig {
    TileConfig {
        tile_points,
        min_stations: 2,
        min_points: 1,
    }
}

/// The sparse shape `bulk_locate` serves — about four query points per
/// station, uniform over the station box ×1.05 — where a tile spans
/// many zones and the sub-tile re-prune does the real narrowing. Every
/// backend and kernel stays bit-identical to its serial path, and the
/// sub-tile lists are a fraction of the tile candidate sets.
#[test]
fn sparse_batch_sub_tiles_match_serial_and_narrow_the_scan() {
    let half = 32.0;
    let net = gen::random_uniform_network(71, 1024, half, 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5BA5);
    let points = gen::uniform_in_box(&mut rng, 4096, half * 1.05);
    assert_tiled_equals_serial("ExactScan", &ExactScan::new(&net), &points);
    assert_tiled_equals_serial("VoronoiAssisted", &VoronoiAssisted::new(&net), &points);
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
        assert_tiled_equals_serial(kernel.name(), &simd, &points);
        let stats = assert_direct_equals_serial(
            kernel.name(),
            simd.evaluator(),
            kernel,
            Select::MaxEnergy,
            &points,
            &TileConfig::default(),
            |p| simd.locate(p),
        );
        let tile_mean = stats.mean_candidates().unwrap();
        let scanned_mean = stats.mean_scanned_candidates().unwrap();
        assert!(
            scanned_mean * 2.0 < tile_mean,
            "{}: sub-tiles scanned {scanned_mean} of {tile_mean} tile candidates",
            kernel.name()
        );
    }
}

/// Tile sizes that leave partial and undersized sub-tiles (1, 31 and 33
/// points, a 100-point tile of three full sub-tiles and a 4-point
/// remainder, and 529 = 16·32 + 17), on every kernel, in both
/// selection modes.
#[test]
fn partial_sub_tiles_match_serial_under_custom_tile_sizes() {
    let net = big_network(81, 300, true);
    let eval = SinrEvaluator::new(&net);
    let tree = VoronoiAssisted::new(&net);
    let points = query_batch(&net, 1200, 0x5AB);
    for tile_points in [1usize, 31, 33, 100, 529] {
        let cfg = forced(tile_points);
        for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let name = format!("{} tile_points={tile_points}", kernel.name());
            let stats = assert_direct_equals_serial(
                &name,
                &eval,
                kernel,
                Select::MaxEnergy,
                &points,
                &cfg,
                |p| eval.locate(p),
            );
            assert_eq!(stats.tiles as usize, points.len().div_ceil(tile_points));
            assert!(stats.pruned_tiles > 0, "{name}: no tile pruned");
        }
        assert_direct_equals_serial(
            &format!("nearest tile_points={tile_points}"),
            &eval,
            SimdKernel::detect(),
            Select::Nearest,
            &points,
            &cfg,
            |p| tree.locate(p),
        );
    }
}

/// Degenerate sub-tiles: 64 copies of one point (a zero-area sub-tile
/// box), 64 copies of a station position (a zero-area box *on* a
/// station, whose envelope bottom is `∞`), every station position and
/// near-station jitter — on non-uniform powers (`MaxEnergy`), uniform
/// `Nearest` through the direct executor, and `α = 3` (the scalar
/// `powf` envelope pass) on every kernel.
#[test]
fn degenerate_sub_tiles_match_serial_across_selection_modes_and_alpha() {
    let with_degenerate_runs = |net: &Network, seed: u64| {
        let mut points = query_batch(net, 1500, seed);
        let s = net.position(StationId(5));
        points.extend(std::iter::repeat_n(Point::new(s.x + 0.37, s.y - 0.21), 64));
        points.extend(std::iter::repeat_n(s, 64));
        points.extend(net.ids().map(|i| net.position(i)));
        points
    };
    let cfg = forced(128);

    // Non-uniform powers: max-energy selection against the scan and
    // the weighted tree.
    let net = big_network(91, 256, false);
    let eval = SinrEvaluator::new(&net);
    let tree = VoronoiAssisted::new(&net);
    let points = with_degenerate_runs(&net, 0xD1);
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
        assert_direct_equals_serial(
            &format!("non-uniform {}", kernel.name()),
            &eval,
            kernel,
            Select::MaxEnergy,
            &points,
            &cfg,
            |p| simd.locate(p),
        );
    }
    assert_direct_equals_serial(
        "non-uniform weighted tree",
        &eval,
        SimdKernel::detect(),
        Select::MaxEnergy,
        &points,
        &cfg,
        |p| tree.locate(p),
    );

    // Uniform power: nearest selection against the kd-tree walk.
    let net = big_network(92, 256, true);
    let eval = SinrEvaluator::new(&net);
    let tree = VoronoiAssisted::new(&net);
    let points = with_degenerate_runs(&net, 0xD2);
    assert_direct_equals_serial(
        "uniform nearest",
        &eval,
        SimdKernel::detect(),
        Select::Nearest,
        &points,
        &cfg,
        |p| tree.locate(p),
    );

    // α = 3: the scalar envelope pass under every kernel's keep pass.
    let mut rng = rand::rngs::StdRng::seed_from_u64(93);
    let mut b = Network::builder()
        .background_noise(0.01)
        .threshold(1.5)
        .path_loss(3.0);
    for _ in 0..256 {
        b = b.station(Point::new(
            rng.gen_range(-32.0..32.0),
            rng.gen_range(-32.0..32.0),
        ));
    }
    let net = b.build().unwrap();
    let eval = SinrEvaluator::new(&net);
    let points = with_degenerate_runs(&net, 0xD3);
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
        let stats = assert_direct_equals_serial(
            &format!("alpha=3 {}", kernel.name()),
            &eval,
            kernel,
            Select::MaxEnergy,
            &points,
            &cfg,
            |p| simd.locate(p),
        );
        assert!(stats.pruned_tiles > 0, "alpha=3: no tile pruned");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random permutations of random batches over random tiled-scale
    /// networks: every backend answers every point identically in every
    /// order.
    #[test]
    fn permutation_invariance_proptest(
        seed in any::<u64>(),
        uniform in any::<bool>(),
    ) {
        let net = big_network(seed % 1000, TILED_MIN_STATIONS, uniform);
        let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + (seed % 700) as usize, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5A5A);
        let mut perm: Vec<usize> = (0..points.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Point> = perm.iter().map(|&i| points[i]).collect();
        let exact = ExactScan::new(&net);
        let voronoi = VoronoiAssisted::new(&net);
        let simd = SimdScan::new(&net);
        let mut base = vec![Located::Silent; points.len()];
        let mut shuf = vec![Located::Silent; points.len()];
        for (name, engine) in [
            ("exact", &exact as &dyn QueryEngine),
            ("voronoi", &voronoi),
            ("simd", &simd),
        ] {
            engine.locate_batch(&points, &mut base);
            engine.locate_batch(&shuffled, &mut shuf);
            for (slot, &orig) in perm.iter().enumerate() {
                prop_assert_eq!(
                    shuf[slot],
                    base[orig],
                    "{} not permutation-invariant at original index {}",
                    name,
                    orig
                );
            }
        }
    }
}
