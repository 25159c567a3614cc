//! Serial/parallel gate regression tests for the batch drivers.
//!
//! `batch_map` decides from *measured work*, not length: the calling
//! thread answers and times a short probe prefix, and only when the rest
//! of the batch projects to a few hundred µs does it go to the
//! work-stealing scheduler. Gates are where splitting bugs live (the
//! PR-1 static split spawned dozens of near-empty threads for `len`
//! barely above its threshold), so these tests pin, across the lengths
//! in [`GATE_LENS`] — a single input, both sides of the probe-skip
//! cutoff, the `mobile_churn` batch length, and
//! [`PARALLEL_BATCH_THRESHOLD`] `± 1` (where the spatially-tiled
//! executor engages for large networks):
//!
//! * `locate_batch` ≡ per-point serial `locate`, **exactly** (`assert_eq`
//!   on `Located`, no tolerance), for every backend — [`ExactScan`],
//!   [`VoronoiAssisted`], every supported [`SimdScan`] kernel, and the
//!   Theorem-3 `PointLocator` — including 1024-point batches on the
//!   `mobile_churn` network shape, where the gate goes parallel;
//! * cheap closures never leave the calling thread, and expensive ones
//!   reach more than one thread (when there is more than one core) with
//!   results identical to a serial map;
//! * the work-stealing `batch_map` computes exactly what a plain serial
//!   map computes.
//!
//! Exactness holds because batch and serial answers run the *same*
//! kernel per point — parallel scheduling must never change which code
//! computes an answer, only where it runs.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{
    batch_map, ExactScan, Located, QueryEngine, VoronoiAssisted, BATCH_TILE,
    PARALLEL_BATCH_THRESHOLD,
};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::tile::{TileConfig, TILED_MIN_STATIONS};
use sinr_core::{gen, Network, SinrEvaluator};
use sinr_geometry::Point;
use sinr_pointloc::{PointLocator, QdsConfig};
use std::collections::HashSet;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The three batch lengths that straddle the tiled executor's crossover.
const BOUNDARY_LENS: [usize; 3] = [
    PARALLEL_BATCH_THRESHOLD - 1,
    PARALLEL_BATCH_THRESHOLD,
    PARALLEL_BATCH_THRESHOLD + 1,
];

/// `batch_map`'s probe length (a private constant of the engine):
/// batches of at most `2 · PROBE` inputs skip the probe and run serially.
const PROBE: usize = 32;

/// Batch lengths around every decision `batch_map` makes: one input,
/// the probe-skip cutoff `2 · PROBE` and one past it, the `mobile_churn`
/// batch of 1024 `± 1`, and the tiled executor's crossover.
const GATE_LENS: [usize; 9] = [
    1,
    2 * PROBE,
    2 * PROBE + 1,
    1023,
    1024,
    1025,
    PARALLEL_BATCH_THRESHOLD - 1,
    PARALLEL_BATCH_THRESHOLD,
    PARALLEL_BATCH_THRESHOLD + 1,
];

/// Attempts per thread-placement assertion. The gate is a timing
/// measurement, so a preemption during a cheap batch's probe may
/// legitimately project it as expensive (answers are unaffected); one
/// clean attempt out of three pins the intended placement.
const PLACEMENT_ATTEMPTS: usize = 3;

/// A deterministic query batch of exactly `len` points spread over the
/// window, including points at and just off the stations.
fn query_batch(net: &Network, len: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(len);
    for i in net.ids() {
        pts.push(net.position(i));
    }
    while pts.len() < len {
        pts.push(Point::new(
            rng.gen_range(-6.0..6.0),
            rng.gen_range(-6.0..6.0),
        ));
    }
    pts.truncate(len);
    pts
}

/// Random small networks, uniform and non-uniform power.
fn networks() -> impl Strategy<Value = Network> {
    (2usize..6, any::<u64>(), any::<bool>()).prop_map(|(n, seed, uniform)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = Vec::new();
        let mut guard = 0;
        while pts.len() < n && guard < 10_000 {
            guard += 1;
            let cand = Point::new(rng.gen_range(-5.0..=5.0), rng.gen_range(-5.0..=5.0));
            if pts.iter().all(|p| p.dist(cand) >= 0.8) {
                pts.push(cand);
            }
        }
        let mut b = Network::builder().background_noise(0.02).threshold(1.5);
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

fn assert_batch_equals_serial<E: QueryEngine>(
    name: &str,
    engine: &E,
    points: &[Point],
) -> Result<(), TestCaseError> {
    let mut batch = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut batch);
    for (p, got) in points.iter().zip(&batch) {
        let serial = engine.locate(*p);
        prop_assert_eq!(
            *got,
            serial,
            "{} batch/serial mismatch at {} (len {})",
            name,
            p,
            points.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every backend answers a batch exactly like a serial loop of
    /// `locate` calls at every gate length.
    #[test]
    fn locate_batch_equals_serial_at_threshold_boundaries(
        net in networks(),
        seed in any::<u64>(),
    ) {
        for len in GATE_LENS {
            let points = query_batch(&net, len, seed);
            assert_batch_equals_serial("ExactScan", &ExactScan::new(&net), &points)?;
            assert_batch_equals_serial("VoronoiAssisted", &VoronoiAssisted::new(&net), &points)?;
            for kernel in SimdKernel::ALL {
                if !kernel.is_supported() {
                    continue;
                }
                let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                assert_batch_equals_serial(kernel.name(), &simd, &points)?;
            }
        }
    }

    /// The work-stealing scheduler produces a plain serial map's
    /// outputs at every gate length.
    #[test]
    fn schedulers_agree_at_threshold_boundaries(offset in 0u64..1024) {
        for len in GATE_LENS {
            let inputs: Vec<u64> = (offset..offset + len as u64).collect();
            let f = |x: &u64| x.rotate_left(7) ^ 0xA5A5;
            let mut stolen = vec![0u64; len];
            batch_map(&inputs, &mut stolen, f);
            let serial: Vec<u64> = inputs.iter().map(f).collect();
            prop_assert_eq!(&stolen, &serial, "batch_map disagrees with a serial map at len {}", len);
        }
    }
}

/// Busy-waits `d`.
fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Runs `batch_map` over `0..len` with `f`, recording the thread each
/// input ran on; returns the results and the set of threads.
fn traced_batch_map(len: usize, f: impl Fn(u64) -> u64 + Sync) -> (Vec<u64>, HashSet<ThreadId>) {
    let inputs: Vec<u64> = (0..len as u64).collect();
    let mut out = vec![(u64::MAX, std::thread::current().id()); len];
    batch_map(&inputs, &mut out, |&x| (f(x), std::thread::current().id()));
    out.into_iter().unzip()
}

/// A batch of cheap inputs projects far below the spawn bound at every
/// gate length, so it never leaves the calling thread.
#[test]
fn cheap_batches_stay_on_the_calling_thread() {
    let caller = std::thread::current().id();
    for len in GATE_LENS {
        let on_caller = (0..PLACEMENT_ATTEMPTS).any(|_| {
            let (out, threads) = traced_batch_map(len, |x| x ^ 0xA5);
            assert!(out.iter().zip(0..).all(|(&y, x)| y == x ^ 0xA5));
            threads == HashSet::from([caller])
        });
        assert!(on_caller, "a cheap batch of {len} spawned in every attempt");
    }
}

/// The gate measures the probe prefix alone: a batch whose first
/// `PROBE` inputs are cheap stays on the calling thread even when the
/// rest is slow. This is the observable difference between the measured
/// decision and an always-parallel one — a helper spawned for this batch
/// would take part of its ~20 ms remainder.
#[test]
fn the_gate_decides_from_the_probe_prefix() {
    let caller = std::thread::current().id();
    let on_caller = (0..PLACEMENT_ATTEMPTS).any(|_| {
        let (_, threads) = traced_batch_map(1024, |x| {
            if x >= PROBE as u64 {
                spin(Duration::from_micros(20));
            }
            x
        });
        threads == HashSet::from([caller])
    });
    assert!(
        on_caller,
        "a batch with a cheap probe prefix spawned in every attempt"
    );
}

/// A batch of deliberately slow inputs (~5 µs each) answers exactly like
/// a serial map at every gate length, and — wherever the probe leaves
/// enough work for more than one unit and there is more than one core —
/// runs on more than one thread.
#[test]
fn slow_batches_match_serial_and_use_more_than_one_thread() {
    let slow = |x: u64| {
        spin(Duration::from_micros(5));
        x.rotate_left(11) ^ 0x5EED
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for len in GATE_LENS {
        let want: Vec<u64> = (0..len as u64)
            .map(|x| x.rotate_left(11) ^ 0x5EED)
            .collect();
        let expect_parallel = cores > 1 && len >= 1023;
        let mut parallel = false;
        for _ in 0..PLACEMENT_ATTEMPTS {
            let (out, threads) = traced_batch_map(len, slow);
            assert_eq!(out, want, "slow batch of {len} diverged from a serial map");
            parallel |= threads.len() > 1;
            if parallel || !expect_parallel {
                break;
            }
        }
        assert!(
            parallel || !expect_parallel,
            "a slow batch of {len} ran on one thread in every attempt ({cores} cores)"
        );
    }
}

/// The `mobile_churn` shape: a 4096-station clustered-power network (one
/// 8× macro station per 64, the rest jittered around unit power) queried
/// in 1024-point batches — the untiled path whose measured work sends it
/// to every core. Every backend and kernel must answer each batch
/// exactly like per-point `locate`.
#[test]
fn churn_shaped_batches_equal_per_point_locate() {
    const STATIONS: usize = 4096;
    const BATCH: usize = 1024;
    let half = 2.0 * (STATIONS as f64).sqrt();
    let layout = gen::random_uniform_network(0xC4A2, STATIONS, half, 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A2);
    let mut b = Network::builder()
        .background_noise(0.01)
        .threshold(2.0)
        .path_loss(2.0);
    for (k, s) in layout.stations().enumerate() {
        let power = if k % 64 == 0 {
            8.0
        } else {
            rng.gen_range(0.5..1.5)
        };
        b = b.station_with_power(s.position, power);
    }
    let net = b.build().unwrap();
    assert!(!net.is_uniform_power());
    for seed in [1, 2] {
        let points = query_batch_window(&net, BATCH, seed, half * 1.1);
        assert_batch_equals_serial_exact("VoronoiAssisted", &VoronoiAssisted::new(&net), &points);
        assert_batch_equals_serial_exact("ExactScan", &ExactScan::new(&net), &points);
        for kernel in SimdKernel::ALL {
            if kernel.is_supported() {
                let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                assert_batch_equals_serial_exact(kernel.name(), &simd, &points);
            }
        }
    }
}

/// The PR-5 spatial tiler's defaults are the documented constants:
/// `TileConfig`'s default tile size IS `BATCH_TILE` (also the largest
/// unit `batch_map` hands a worker), and its default engagement
/// thresholds are `PARALLEL_BATCH_THRESHOLD` and `TILED_MIN_STATIONS`.
/// A drift here means someone re-introduced a second knob.
#[test]
fn tile_config_defaults_share_the_batch_knob() {
    let cfg = TileConfig::default();
    assert_eq!(cfg.tile_points, BATCH_TILE);
    assert_eq!(cfg.min_points, PARALLEL_BATCH_THRESHOLD);
    assert_eq!(cfg.min_stations, TILED_MIN_STATIONS);
    assert!(cfg.engages(PARALLEL_BATCH_THRESHOLD, TILED_MIN_STATIONS));
    assert!(!cfg.engages(PARALLEL_BATCH_THRESHOLD - 1, TILED_MIN_STATIONS));
    assert!(!cfg.engages(PARALLEL_BATCH_THRESHOLD, TILED_MIN_STATIONS - 1));
}

/// The tiled-executor crossover: at `TILED_MIN_STATIONS ± 1` stations
/// and `PARALLEL_BATCH_THRESHOLD ± 1` points — every combination of
/// which path (serial / per-point parallel / tiled) runs — all backends
/// and kernels stay bit-identical to the serial per-point loop.
#[test]
fn tiled_executor_threshold_boundaries_stay_serial_identical() {
    for stations in [TILED_MIN_STATIONS - 1, TILED_MIN_STATIONS] {
        let half = 2.0 * (stations as f64).sqrt();
        let net = gen::random_uniform_network(0x71E5 + stations as u64, stations, half, 0.01, 2.0)
            .unwrap();
        for len in BOUNDARY_LENS {
            let points = query_batch_window(&net, len, 0xAB, half * 1.1);
            assert_batch_equals_serial_exact("ExactScan", &ExactScan::new(&net), &points);
            assert_batch_equals_serial_exact(
                "VoronoiAssisted",
                &VoronoiAssisted::new(&net),
                &points,
            );
            for kernel in SimdKernel::ALL {
                if !kernel.is_supported() {
                    continue;
                }
                let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                assert_batch_equals_serial_exact(kernel.name(), &simd, &points);
            }
        }
    }
}

/// Like `query_batch` but spread over the given window (the tiled-scale
/// networks live in larger windows than the ±6 proptest nets).
fn query_batch_window(net: &Network, len: usize, seed: u64, half: f64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(len);
    for i in net.ids().take(32) {
        pts.push(net.position(i));
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

fn assert_batch_equals_serial_exact<E: QueryEngine>(name: &str, engine: &E, points: &[Point]) {
    let mut batch = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut batch);
    for (p, got) in points.iter().zip(&batch) {
        assert_eq!(
            *got,
            engine.locate(*p),
            "{name} batch/serial mismatch at {p} (len {})",
            points.len()
        );
    }
}

/// The Theorem-3 QDS backend at the crossover lengths: its batch driver
/// rides the same `batch_map`, and its per-point answers (including
/// `Uncertain`) are deterministic, so batch ≡ serial exactly.
#[test]
fn qds_backend_batch_equals_serial_at_threshold_boundaries() {
    let net = Network::uniform(
        vec![
            Point::new(-2.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 3.0),
        ],
        0.02,
        2.0,
    )
    .unwrap();
    let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
    for len in BOUNDARY_LENS {
        let points = query_batch(&net, len, 0xD5);
        let mut batch = vec![Located::Silent; points.len()];
        QueryEngine::locate_batch(&ds, &points, &mut batch);
        for (p, got) in points.iter().zip(&batch) {
            assert_eq!(*got, ds.locate(*p), "QDS batch/serial mismatch at {p}");
        }
    }
}
