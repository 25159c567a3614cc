//! Dynamic-update equivalence: incremental [`QueryEngine::apply`] must be
//! **bit-for-bit** indistinguishable from rebuilding the engine from the
//! mutated network, for every backend and every supported SIMD kernel,
//! across arbitrary add / move / remove / power-change sequences.
//!
//! The guarantee is exact (`assert_eq!` on [`Located`], `==` on `f64`
//! SINR values), not tolerance-based: an incrementally patched engine
//! runs the *same* kernels over the *same* SoA contents in the same
//! order as a freshly built one — the network's swap-remove index
//! discipline is mirrored one-for-one by the engine patch, and the
//! dynamic kd-tree's tombstone/overflow search uses the fresh tree's tie
//! rule. Any divergence is a bug in the patch path, not rounding.
//!
//! Also pinned here: the staleness contract (a mutated-but-unsynced
//! engine refuses to answer), delta ordering (skipped deltas are
//! [`SyncError::RevisionMismatch`]), delta provenance (foreign deltas
//! are rejected), and remove-then-re-add of the same index.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{ExactScan, Located, QueryEngine, SyncError, VoronoiAssisted};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::{gen, Network, NetworkDelta, NetworkError, SinrEvaluator, StationId, SurgeryOp};
use sinr_geometry::{Point, Vector};

/// Separated stations (non-degenerate zones, honest numerics).
fn separated_points(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    let mut guard = 0;
    while pts.len() < n && guard < 10_000 {
        guard += 1;
        let cand = Point::new(rng.gen_range(-5.0..=5.0), rng.gen_range(-5.0..=5.0));
        if pts.iter().all(|p| p.dist(cand) >= 0.8) {
            pts.push(cand);
        }
    }
    pts
}

/// Initial networks: uniform and non-uniform power, α ∈ {2, 3, 4}, β
/// above and below 1 — the full space the engines claim.
fn networks() -> impl Strategy<Value = Network> {
    (
        3usize..7,
        any::<u64>(),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(n, seed, alpha_idx, uniform, beta_low)| {
            let pts = separated_points(seed, n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD11A);
            let beta = if beta_low { 0.6 } else { 1.8 };
            let mut b = Network::builder()
                .background_noise(0.02)
                .threshold(beta)
                .path_loss([2.0, 3.0, 4.0][alpha_idx]);
            for p in pts {
                if uniform {
                    b = b.station(p);
                } else {
                    b = b.station_with_power(p, rng.gen_range(0.5..2.5));
                }
            }
            b.build().expect("≥ 3 separated stations")
        })
}

/// One random surgery op applied to `net`, returning its delta.
fn random_op(rng: &mut rand::rngs::StdRng, net: &mut Network) -> NetworkDelta {
    let choice: usize = rng.gen_range(0..8);
    match choice {
        // Adds: half uniform power (keeps VoronoiAssisted on the
        // nearest walk), half weighted (exercises the power-diagram
        // dispatch and the re-weighting transition).
        0 | 1 => {
            let p = Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
            let power = if choice == 0 {
                1.0
            } else {
                rng.gen_range(0.5..2.5)
            };
            net.add_station(p, power).expect("valid add")
        }
        2 | 3 if net.len() > 2 => {
            let i = rng.gen_range(0..net.len());
            net.remove_station(StationId(i)).expect("valid remove")
        }
        4 | 5 => {
            let i = rng.gen_range(0..net.len());
            let p = Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
            net.move_station(StationId(i), p).expect("valid move")
        }
        6 => {
            let i = rng.gen_range(0..net.len());
            let power = rng.gen_range(0.5..2.5);
            net.set_power(StationId(i), power).expect("valid power")
        }
        // Power back to 1 (also the 2|3 guard fallthrough): exercises
        // the non-uniform → uniform transition (VoronoiAssisted must
        // switch back to the nearest walk without dropping the tree).
        _ => {
            let i = rng.gen_range(0..net.len());
            net.set_power(StationId(i), 1.0).expect("valid power")
        }
    }
}

/// A random *timestep* of surgery as a plain [`SurgeryOp`] list,
/// generated against (and applied to) a scratch mirror so every op in
/// the list is valid by construction when replayed in order.
fn random_op_list(
    rng: &mut rand::rngs::StdRng,
    scratch: &mut Network,
    steps: usize,
) -> Vec<SurgeryOp> {
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let op = match rng.gen_range(0..8) {
            0 | 1 => SurgeryOp::Add {
                position: Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
                power: if rng.gen_range(0..2) == 0 {
                    1.0
                } else {
                    rng.gen_range(0.5..2.5)
                },
            },
            2 | 3 if scratch.len() > 2 => SurgeryOp::Remove {
                id: StationId(rng.gen_range(0..scratch.len())),
            },
            4 | 5 => SurgeryOp::Move {
                id: StationId(rng.gen_range(0..scratch.len())),
                to: Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
            },
            6 => SurgeryOp::SetPower {
                id: StationId(rng.gen_range(0..scratch.len())),
                power: rng.gen_range(0.5..2.5),
            },
            _ => SurgeryOp::SetPower {
                id: StationId(rng.gen_range(0..scratch.len())),
                power: 1.0,
            },
        };
        scratch.apply_op(&op).expect("op valid against the scratch");
        ops.push(op);
    }
    ops
}

/// Query sample: a grid over the churn window plus points at and just
/// off every station (the degenerate corners).
fn sample_points(net: &Network) -> Vec<Point> {
    let mut pts = Vec::new();
    for a in -9..=9 {
        for b in -9..=9 {
            pts.push(Point::new(a as f64 * 0.7, b as f64 * 0.7));
        }
    }
    for i in net.ids() {
        let s = net.position(i);
        pts.push(s);
        pts.push(s + Vector::new(1e-7, -1e-7));
        pts.push(s + Vector::new(0.25, 0.15));
    }
    pts
}

/// `assert_eq!` on every locate answer and every `sinr_batch` value —
/// exact f64 equality, no tolerance.
fn assert_bit_identical<A: QueryEngine, B: QueryEngine>(
    name: &str,
    incremental: &A,
    fresh: &B,
    net: &Network,
) -> Result<(), TestCaseError> {
    let points = sample_points(net);
    let mut inc_out = vec![Located::Silent; points.len()];
    let mut fresh_out = vec![Located::Silent; points.len()];
    incremental.locate_batch(&points, &mut inc_out);
    fresh.locate_batch(&points, &mut fresh_out);
    for (p, (a, b)) in points.iter().zip(inc_out.iter().zip(&fresh_out)) {
        prop_assert_eq!(
            *a,
            *b,
            "{}: incremental vs rebuild diverge at {} in {}",
            name,
            p,
            net
        );
    }
    let mut inc_sinr = vec![0.0; points.len()];
    let mut fresh_sinr = vec![0.0; points.len()];
    for i in net.ids() {
        incremental.sinr_batch(i, &points, &mut inc_sinr);
        fresh.sinr_batch(i, &points, &mut fresh_sinr);
        for (p, (a, b)) in points.iter().zip(inc_sinr.iter().zip(&fresh_sinr)) {
            // Exact equality (infinities compare equal to themselves).
            prop_assert!(
                a == b || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum()),
                "{}: sinr({}, {}) diverges: {} vs {}",
                name,
                i,
                p,
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ExactScan: a long mixed surgery sequence, checked after every op.
    #[test]
    fn exact_scan_apply_equals_rebuild(net in networks(), seed in any::<u64>()) {
        let mut net = net;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut engine = ExactScan::new(&net);
        for _ in 0..12 {
            let delta = random_op(&mut rng, &mut net);
            prop_assert!(engine.is_stale());
            engine.apply(&delta).expect("delta applies in order");
            prop_assert!(!engine.is_stale());
            prop_assert_eq!(engine.revision(), net.revision());
        }
        assert_bit_identical("ExactScan", &engine, &ExactScan::new(&net), &net)?;
    }

    /// SimdScan: every supported kernel, checked at the end of the
    /// sequence (the kernels share the evaluator patch path).
    #[test]
    fn simd_scan_apply_equals_rebuild(net in networks(), seed in any::<u64>()) {
        for kernel in SimdKernel::ALL {
            if !kernel.is_supported() {
                continue;
            }
            let mut net = net.clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut engine = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
            for _ in 0..12 {
                let delta = random_op(&mut rng, &mut net);
                engine.apply(&delta).expect("delta applies in order");
            }
            prop_assert_eq!(engine.kernel(), kernel, "kernel must survive apply");
            let fresh = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
            assert_bit_identical(kernel.name(), &engine, &fresh, &net)?;
        }
    }

    /// VoronoiAssisted: the tombstone/overflow weighted kd-tree (plus
    /// its rebuild heuristic and uniform ↔ non-uniform power
    /// transitions, which since the power-diagram dispatch re-weight the
    /// index instead of dropping it) must be indistinguishable from a
    /// fresh tree — checked after every op so intermediate tombstone
    /// states are exercised, not just the final one.
    #[test]
    fn voronoi_assisted_apply_equals_rebuild(net in networks(), seed in any::<u64>()) {
        let mut net = net;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut engine = VoronoiAssisted::new(&net);
        for _ in 0..14 {
            let delta = random_op(&mut rng, &mut net);
            engine.apply(&delta).expect("delta applies in order");
            let fresh = VoronoiAssisted::new(&net);
            assert_bit_identical("VoronoiAssisted", &engine, &fresh, &net)?;
        }
    }

    /// Scripted uniform → non-uniform → uniform power round trip: the
    /// power-diagram dispatch must keep the tree through both
    /// transitions and stay bit-identical to a fresh rebuild (and to
    /// ExactScan) at every step — the regression this PR's re-weighting
    /// `apply` path exists for (the old contract dropped and rebuilt the
    /// tree at each transition).
    #[test]
    fn power_transitions_keep_tree_and_match_rebuild(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9D1A);
        let n = rng.gen_range(4usize..12);
        let mut net = gen::random_uniform_network(seed ^ 0x77, n, 8.0, 0.01, 1.8)
            .expect("valid uniform network");
        prop_assert!(net.is_uniform_power());
        let mut engine = VoronoiAssisted::new(&net);
        let apply_all = |engine: &mut VoronoiAssisted, deltas: Vec<NetworkDelta>| {
            for d in deltas {
                engine.apply(&d).expect("delta applies in order");
            }
        };
        // Uniform → non-uniform: scatter distinct powers.
        let mut deltas = Vec::new();
        for i in 0..net.len() {
            let p = rng.gen_range(0.5..2.5);
            deltas.push(net.set_power(StationId(i), p).expect("valid power"));
        }
        apply_all(&mut engine, deltas);
        prop_assert!(!net.is_uniform_power());
        assert_bit_identical("non-uniform leg", &engine, &VoronoiAssisted::new(&net), &net)?;
        // Interleave a structural op while non-uniform.
        let p = Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0));
        let d = net.add_station(p, rng.gen_range(0.5..2.5)).expect("valid add");
        apply_all(&mut engine, vec![d]);
        assert_bit_identical("non-uniform add", &engine, &VoronoiAssisted::new(&net), &net)?;
        // Non-uniform → uniform: reset every power to 1.
        let mut deltas = Vec::new();
        for i in 0..net.len() {
            deltas.push(net.set_power(StationId(i), 1.0).expect("valid power"));
        }
        apply_all(&mut engine, deltas);
        prop_assert!(net.is_uniform_power());
        assert_bit_identical("uniform again", &engine, &VoronoiAssisted::new(&net), &net)?;
    }

    /// Remove-then-re-add of the same index: the swap-remove slot is
    /// immediately reused by a new station, both at the old last index
    /// and in the middle — the classic aliasing trap for SoA patching.
    #[test]
    fn remove_then_re_add_same_index(net in networks(), seed in any::<u64>()) {
        let mut net = net;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0DD);
        let mut exact = ExactScan::new(&net);
        let mut voronoi = VoronoiAssisted::new(&net);
        let mut simd = SimdScan::new(&net);
        // Remove the last station (swap-remove degenerates to pop), then
        // a middle one, re-adding after each removal — the re-added
        // station takes the just-vacated index both times.
        for victim in [net.len() - 1, 1] {
            let removed_at = net.position(StationId(victim));
            let d1 = net.remove_station(StationId(victim)).expect("n > 2");
            // Re-add at a fresh position, then move it onto the removed
            // station's exact coordinates to also pin position aliasing.
            let p = Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
            let d2 = net.add_station(p, 1.0).expect("valid add");
            let d3 = net
                .move_station(StationId(net.len() - 1), removed_at)
                .expect("valid move");
            for d in [&d1, &d2, &d3] {
                exact.apply(d).expect("in order");
                voronoi.apply(d).expect("in order");
                simd.apply(d).expect("in order");
            }
            assert_bit_identical("ExactScan", &exact, &ExactScan::new(&net), &net)?;
            assert_bit_identical("VoronoiAssisted", &voronoi, &VoronoiAssisted::new(&net), &net)?;
            assert_bit_identical("SimdScan", &simd, &SimdScan::new(&net), &net)?;
        }
    }

    /// `Network::apply_ops` (a whole timestep in one call) must be
    /// indistinguishable — network state, revision trail, and every
    /// backend's answers, bit-for-bit — from applying the same ops one
    /// at a time through `Network::apply_op`.
    #[test]
    fn apply_ops_equals_one_at_a_time(net in networks(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBA7C);
        let mut scratch = net.clone();
        let ops = random_op_list(&mut rng, &mut scratch, 10);

        // One-at-a-time path: its own network instance + engines.
        let mut one = net.clone();
        let mut one_exact = ExactScan::new(&one);
        let mut one_voronoi = VoronoiAssisted::new(&one);
        let mut one_simd = SimdScan::new(&one);
        for op in &ops {
            let delta = one.apply_op(op).expect("valid by construction");
            one_exact.apply(&delta).expect("in order");
            one_voronoi.apply(&delta).expect("in order");
            one_simd.apply(&delta).expect("in order");
        }

        // Batched path: one call, every delta returned in order.
        let mut batched = net.clone();
        let mut b_exact = ExactScan::new(&batched);
        let mut b_voronoi = VoronoiAssisted::new(&batched);
        let mut b_simd = SimdScan::new(&batched);
        let deltas = batched.apply_ops(&ops).expect("valid by construction");
        prop_assert_eq!(deltas.len(), ops.len());
        for (k, delta) in deltas.iter().enumerate() {
            prop_assert_eq!(delta.from_revision(), k as u64, "gapless revision chain");
            prop_assert_eq!(delta.to_revision(), k as u64 + 1);
            b_exact.apply(delta).expect("in order");
            b_voronoi.apply(delta).expect("in order");
            b_simd.apply(delta).expect("in order");
        }

        // Same physics, same revision, and (scratch took the same ops
        // through yet another path) same as the generator's mirror.
        prop_assert_eq!(&one, &batched, "network state diverged");
        prop_assert_eq!(&scratch, &batched, "scratch mirror diverged");
        prop_assert_eq!(one.revision(), batched.revision());

        // Every backend answers identically under both application
        // styles, and identically to a fresh rebuild.
        assert_bit_identical("ExactScan one-vs-batch", &one_exact, &b_exact, &batched)?;
        assert_bit_identical("Voronoi one-vs-batch", &one_voronoi, &b_voronoi, &batched)?;
        assert_bit_identical("Simd one-vs-batch", &one_simd, &b_simd, &batched)?;
        assert_bit_identical("ExactScan batch-vs-fresh", &b_exact, &ExactScan::new(&batched), &batched)?;
        assert_bit_identical("Voronoi batch-vs-fresh", &b_voronoi, &VoronoiAssisted::new(&batched), &batched)?;
        assert_bit_identical("Simd batch-vs-fresh", &b_simd, &SimdScan::new(&batched), &batched)?;
    }
}

/// `VoronoiAssisted` against a freshly built `SimdScan` pinned to the
/// same kernel: `locate` and `locate_batch` bit-identical on `points`.
fn assert_matches_same_kernel_scan(
    engine: &VoronoiAssisted,
    net: &Network,
    points: &[Point],
    step: usize,
) -> Result<(), TestCaseError> {
    let simd = SimdScan::with_kernel(SinrEvaluator::new(net), engine.kernel());
    let mut want = vec![Located::Silent; points.len()];
    let mut got = vec![Located::Silent; points.len()];
    simd.locate_batch(points, &mut want);
    engine.locate_batch(points, &mut got);
    for (k, p) in points.iter().enumerate() {
        prop_assert_eq!(got[k], want[k], "locate_batch at {} after op {}", p, step);
        prop_assert_eq!(
            engine.locate(*p),
            want[k],
            "locate at {} after op {}",
            p,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Long churn on mid-size networks, where `VoronoiAssisted` decides
    /// most points from certified far-field brackets over the kd-tree's
    /// live power sums: a random Add / Remove / Move / SetPower sequence
    /// of `n` ops — several times past the `n/8` rebuild threshold, so
    /// tombstoned live sums, the overflow list and rebuilds all take
    /// turns — checked every 16 ops against a same-kernel `SimdScan`
    /// built from the mutated network. Query points include the
    /// positions stations vacated (tombstoned slots at the query point)
    /// and non-finite points.
    #[test]
    fn long_churn_far_field_matches_same_kernel_scan(seed in any::<u64>(), clustered in any::<bool>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC4A2);
        let n = rng.gen_range(160usize..320);
        let half = (n as f64).sqrt();
        let mut b = Network::builder().background_noise(0.01).threshold(2.0);
        for k in 0..n {
            let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
            let power = match (clustered, k % 32) {
                (false, _) => 1.0,
                (true, 0) => 8.0,
                (true, _) => rng.gen_range(0.5..1.5),
            };
            b = b.station_with_power(p, power);
        }
        let mut net = b.build().expect("≥ 160 stations");
        let mut engine = VoronoiAssisted::new(&net);
        let mut vacated: Vec<Point> = Vec::new();
        let power = |rng: &mut rand::rngs::StdRng| {
            if clustered { rng.gen_range(0.5..1.5) } else { 1.0 }
        };
        for step in 0..n {
            let delta = match rng.gen_range(0..10) {
                0 => {
                    let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
                    let w = power(&mut rng);
                    net.add_station(p, w).expect("valid add")
                }
                1 if net.len() > 2 => {
                    let i = StationId(rng.gen_range(0..net.len()));
                    vacated.push(net.position(i));
                    net.remove_station(i).expect("valid remove")
                }
                2..=6 => {
                    let i = StationId(rng.gen_range(0..net.len()));
                    let from = net.position(i);
                    vacated.push(from);
                    let to = from + Vector::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    net.move_station(i, to).expect("valid move")
                }
                _ => {
                    let i = StationId(rng.gen_range(0..net.len()));
                    let w = power(&mut rng);
                    net.set_power(i, w).expect("valid power")
                }
            };
            engine.apply(&delta).expect("delta applies in order");
            if step % 16 == 15 || step + 1 == n {
                let mut points: Vec<Point> = (0..200)
                    .map(|_| Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half)))
                    .collect();
                points.extend(net.positions().iter().step_by(5));
                points.extend(vacated.iter().rev().take(24));
                points.extend([Point::new(f64::NAN, 1.0), Point::new(f64::INFINITY, 0.0)]);
                assert_matches_same_kernel_scan(&engine, &net, &points, step)?;
            }
        }
        assert_bit_identical("VoronoiAssisted after long churn", &engine, &VoronoiAssisted::new(&net), &net)?;
    }
}

#[test]
fn apply_ops_partial_failure_keeps_prefix_and_reports_index() {
    let mut net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.0),
        ],
        0.01,
        1.5,
    )
    .unwrap();
    let mut engine = VoronoiAssisted::new(&net);
    let ops = [
        SurgeryOp::Move {
            id: StationId(0),
            to: Point::new(-1.0, 0.0),
        },
        SurgeryOp::Add {
            position: Point::new(2.0, 2.0),
            power: 1.0,
        },
        // Fails: no station 50.
        SurgeryOp::SetPower {
            id: StationId(50),
            power: 2.0,
        },
        // Never reached.
        SurgeryOp::Remove { id: StationId(0) },
    ];
    let err = net.apply_ops(&ops).expect_err("op #2 is invalid");
    assert_eq!(err.index, 2);
    assert_eq!(err.applied.len(), 2);
    assert!(matches!(err.error, NetworkError::StationOutOfRange(50)));
    // The error is a real std error with the cause chained.
    assert!(std::error::Error::source(&err).is_some());
    assert!(err.to_string().contains("op #2"));

    // The prefix really was applied: revision 2, the move + add visible,
    // the suffix not.
    assert_eq!(net.revision(), 2);
    assert_eq!(net.len(), 4);
    assert_eq!(net.position(StationId(0)), Point::new(-1.0, 0.0));

    // Engines catch up from the error's deltas and agree with a rebuild.
    for delta in &err.applied {
        engine.apply(delta).expect("prefix deltas are in order");
    }
    assert!(!engine.is_stale());
    let fresh = VoronoiAssisted::new(&net);
    for p in [
        Point::new(0.3, 0.2),
        Point::new(2.0, 2.0),
        Point::new(-4.0, 1.0),
    ] {
        assert_eq!(engine.locate(p), fresh.locate(p));
    }
}

#[test]
fn surgery_op_wire_round_trip() {
    let ops = [
        SurgeryOp::Add {
            position: Point::new(1.5, -2.25),
            power: 0.75,
        },
        SurgeryOp::Remove { id: StationId(7) },
        SurgeryOp::Move {
            id: StationId(3),
            to: Point::new(-0.5, 9.0),
        },
        SurgeryOp::SetPower {
            id: StationId(0),
            power: 2.5,
        },
    ];
    // Concatenated encoding decodes back op-for-op.
    let mut buf = Vec::new();
    for op in &ops {
        op.encode_into(&mut buf);
    }
    let mut at = 0;
    for op in &ops {
        let (decoded, used) = SurgeryOp::decode(&buf[at..]).expect("decodes");
        assert_eq!(&decoded, op);
        at += used;
    }
    assert_eq!(at, buf.len(), "no trailing bytes");

    // Every proper prefix of the first op (a 25-byte Add) is a typed
    // truncation error, never a panic.
    for cut in 0..25 {
        assert!(
            matches!(
                SurgeryOp::decode(&buf[..cut]),
                Err(sinr_core::WireError::Truncated { .. })
            ),
            "prefix of {cut} bytes must be Truncated"
        );
    }
    assert!(matches!(
        SurgeryOp::decode(&[]),
        Err(sinr_core::WireError::Truncated { missing: 1 })
    ));
    assert!(matches!(
        SurgeryOp::decode(&[0, 1, 2]),
        Err(sinr_core::WireError::Truncated { .. })
    ));
    assert!(matches!(
        SurgeryOp::decode(&[42, 0, 0, 0, 0]),
        Err(sinr_core::WireError::UnknownOpTag(42))
    ));
}

#[test]
fn stale_engine_refuses_to_answer() {
    let mut net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.0),
        ],
        0.01,
        1.5,
    )
    .unwrap();
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(ExactScan::new(&net)),
        Box::new(SimdScan::new(&net)),
        Box::new(VoronoiAssisted::new(&net)),
    ];
    net.move_station(StationId(0), Point::new(-1.0, 0.0))
        .unwrap();
    for engine in engines {
        assert!(engine.is_stale());
        // A stale engine must never answer — locate panics with the
        // revision mismatch rather than returning a possibly-wrong zone.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.locate(Point::new(0.5, 0.0))
        }))
        .expect_err("stale engine answered");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("stale query engine") && msg.contains("revision"),
            "unexpected panic message: {msg}"
        );
    }
}

#[test]
fn skipped_and_foreign_deltas_are_rejected() {
    let mut net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.0),
        ],
        0.0,
        2.0,
    )
    .unwrap();
    let mut engine = ExactScan::new(&net);
    let d1 = net
        .move_station(StationId(0), Point::new(-1.0, 0.0))
        .unwrap();
    let d2 = net
        .move_station(StationId(1), Point::new(5.0, 0.0))
        .unwrap();
    // Skipping d1 is a revision mismatch…
    assert_eq!(
        engine.apply(&d2),
        Err(SyncError::RevisionMismatch {
            engine_revision: 0,
            delta_from: 1
        })
    );
    // …in order works…
    engine.apply(&d1).unwrap();
    engine.apply(&d2).unwrap();
    // …and replaying is again a mismatch.
    assert!(matches!(
        engine.apply(&d2),
        Err(SyncError::RevisionMismatch { .. })
    ));
    // A delta from a clone (same data, different instance) is foreign.
    let mut other = net.clone();
    let foreign = other
        .move_station(StationId(0), Point::new(0.5, 0.5))
        .unwrap();
    assert_eq!(engine.apply(&foreign), Err(SyncError::ForeignDelta));
    // sync() is the catch-up path after any rejection.
    engine.sync(&other).unwrap();
    assert_eq!(engine.revision(), other.revision());
    assert!(!engine.is_stale());
}

#[test]
fn sync_retargets_and_unstales() {
    let mut net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.0),
        ],
        0.01,
        1.5,
    )
    .unwrap();
    let mut engine = VoronoiAssisted::new(&net);
    for _ in 0..3 {
        net.add_station(Point::new(2.0, -2.0), 1.0).unwrap();
        net.remove_station(StationId(0)).unwrap();
    }
    assert!(engine.is_stale());
    engine.sync(&net).unwrap();
    assert!(!engine.is_stale());
    let fresh = VoronoiAssisted::new(&net);
    for p in [
        Point::new(0.3, 0.2),
        Point::new(2.0, 0.0),
        Point::new(9.0, 9.0),
    ] {
        assert_eq!(engine.locate(p), fresh.locate(p));
    }
}
