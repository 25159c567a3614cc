//! `mobile_churn`: writes alongside reads. Two connections driven in
//! lockstep from one thread against a registered clustered-power network
//! (`VoronoiAssisted`, weighted kd-tree dispatch): every step the writer
//! sends `Mutate` (8 `Move` + 2 `SetPower`), then the reader sends a
//! 1024-point `LocateBatch` that must answer at the new revision. The
//! reads stay below the tiling threshold, so they take the untiled
//! per-point path.

use crate::inputs::{self, ChurnScript};
use crate::trace::{ms, Role};
use crate::workload::{
    replay_protocol, ClientStats, Fnv, Phase, Until, Workload, DIGEST_FRAMES, MAX_SAMPLES,
    SAMPLE_EVERY, WARM_UP_OPS,
};
use sinr_core::tile::{locate_batch_tiled, Select};
use sinr_core::{Located, Network, QueryEngine, SurgeryOp, TileConfig, VoronoiAssisted};
use sinr_geometry::Point;
use sinr_server::{
    BackendId, Client, NamedNetwork, NetworkRegistry, NetworkSpec, Request, Response, Server,
    ServerHandle, TcpTransport,
};
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;
const BATCH_POINTS: usize = 1024;
const POOL_BATCHES: usize = 16;
const NAME: &str = "churn";

pub struct MobileChurn {
    /// The network as registered (revision of the first step's fence).
    start: Network,
    pool: Vec<Vec<Point>>,
    script: ChurnScript,
    server: ServerHandle,
    writer: Client<TcpTransport>,
    reader: Client<TcpTransport>,
    revision: u64,
    /// Every step's ops, warm-up included, in the order sent.
    steps: Vec<Vec<SurgeryOp>>,
    /// Kept answers: (step index, revision, answers).
    samples: Vec<(usize, u64, Vec<Located>)>,
    /// The traced run's local copies, built on first use.
    replay: Option<Replay>,
}

/// Benchmark-owned mirrors of the server's layers, kept at the server's
/// revision: a registry network with one attached store, the network, and an
/// incrementally applied engine.
struct Replay {
    mirror: Arc<NamedNetwork>,
    net: Network,
    engine: VoronoiAssisted,
}

fn batch_index(step: usize) -> usize {
    step % POOL_BATCHES
}

/// One step: `Mutate` on the writer, then `LocateBatch` on the reader.
/// Advances `revision` and returns the reader's answers.
fn step(
    writer: &mut Client<TcpTransport>,
    reader: &mut Client<TcpTransport>,
    revision: &mut u64,
    ops: &[SurgeryOp],
    points: &[Point],
) -> Result<Vec<Located>, String> {
    let after = writer
        .mutate(*revision, ops)
        .map_err(|e| format!("mutate: {e}"))?;
    if after != *revision + ops.len() as u64 {
        return Err(format!("mutate moved revision {revision} to {after}"));
    }
    *revision = after;
    let (rev, answers) = reader
        .locate_batch(points)
        .map_err(|e| format!("locate: {e}"))?;
    if rev != after || answers.len() != points.len() {
        return Err(format!(
            "locate answered {} points at revision {rev}",
            answers.len()
        ));
    }
    Ok(answers)
}

impl MobileChurn {
    /// The local network after every logged step.
    fn replayed_network(&self) -> Network {
        let mut net = self.start.clone();
        for ops in &self.steps {
            net.apply_ops(ops)
                .expect("logged ops applied on the server");
        }
        net
    }

    fn build_replay(&self) -> Replay {
        let net = self.replayed_network();
        let registry = NetworkRegistry::new();
        registry
            .register("mirror", &NetworkSpec::of(&net))
            .expect("mirror registers");
        // The attach creates the network's store, so every mirrored
        // mutate also advances an engine, as on the server.
        let attached = registry
            .attach("mirror", BackendId::VoronoiAssisted, 0.0)
            .expect("mirror attaches");
        Replay {
            mirror: attached.network,
            engine: VoronoiAssisted::new(&net),
            net,
        }
    }
}

impl Workload for MobileChurn {
    fn setup(seed: u64) -> Result<Self, String> {
        let start = inputs::clustered_power_network(seed);
        let pool = inputs::point_pool(seed, POOL_BATCHES, BATCH_POINTS);
        let script = ChurnScript::new(seed, &start);
        let server = Server::bind("127.0.0.1:0")
            .and_then(|s| s.spawn_pooled(WORKERS))
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut writer = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut reader = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let revision = writer
            .register_network(NAME, &start)
            .map_err(|e| format!("register: {e}"))?;
        if revision != start.revision() {
            return Err(format!("registered at revision {revision}"));
        }
        for client in [&mut writer, &mut reader] {
            client
                .attach(NAME, BackendId::VoronoiAssisted, 0.0)
                .map_err(|e| format!("attach: {e}"))?;
        }
        let mut churn = MobileChurn {
            start,
            pool,
            script,
            server,
            writer,
            reader,
            revision,
            steps: Vec::new(),
            samples: Vec::new(),
            replay: None,
        };
        // Warm-up steps are logged like any other.
        for _ in 0..WARM_UP_OPS {
            let ops = churn.script.next_step();
            let points = &churn.pool[batch_index(churn.steps.len())];
            let result = step(
                &mut churn.writer,
                &mut churn.reader,
                &mut churn.revision,
                &ops,
                points,
            );
            churn.steps.push(ops);
            result.map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(churn)
    }

    fn run(&mut self, until: Until, traced: bool) -> Phase {
        if traced && self.replay.is_none() {
            self.replay = Some(self.build_replay());
        }
        let epoch = Instant::now();
        let mut st = ClientStats::new(epoch);
        let mut kept = 0;
        while until.more(st.attempted) {
            let n = self.steps.len();
            let ops = self.script.next_step();
            let points = &self.pool[batch_index(n)];
            let before = self.revision;
            st.attempted += 1;
            let t0 = Instant::now();
            st.marks.push(t0);
            let result = step(
                &mut self.writer,
                &mut self.reader,
                &mut self.revision,
                &ops,
                points,
            );
            let t1 = Instant::now();
            self.steps.push(ops);
            let answers = match result {
                Ok(answers) => answers,
                Err(e) => {
                    // The server may hold a partial step: stop here.
                    st.fail(e);
                    break;
                }
            };
            let revision = self.revision;
            st.latencies_ms.push(ms(t1 - t0));
            if let Some(replay) = &mut self.replay {
                let r0 = Instant::now();
                let op = n as u64;
                st.log.op(op, t0, t1);
                let ops = &self.steps[n];
                if !replay_step(&mut st, op, replay, before, ops, points, revision, &answers) {
                    st.fail(format!("step {n}: replay disagrees with the server"));
                }
                st.replay_time += r0.elapsed();
            }
            if (n as u64).is_multiple_of(SAMPLE_EVERY) && kept < MAX_SAMPLES {
                kept += 1;
                self.samples.push((n, revision, answers));
            }
        }
        st.marks.push(Instant::now());
        Phase::merge(epoch, epoch.elapsed(), vec![st])
    }

    fn verify(&mut self) -> (u64, u64) {
        let mut net = self.start.clone();
        let mut mismatched = 0;
        let mut samples = self.samples.iter().peekable();
        for (step, ops) in self.steps.iter().enumerate() {
            net.apply_ops(ops)
                .expect("logged ops applied on the server");
            while let Some((_, revision, answers)) = samples.next_if(|s| s.0 == step) {
                let engine = VoronoiAssisted::new(&net);
                let mut want = vec![Located::Silent; BATCH_POINTS];
                engine.locate_batch(&self.pool[batch_index(step)], &mut want);
                if *revision != net.revision() || *answers != want {
                    mismatched += 1;
                }
            }
        }
        (self.samples.len() as u64, mismatched)
    }

    fn frames_digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        let mut revision = self.start.revision();
        for (step, ops) in self.steps.iter().take(DIGEST_FRAMES as usize).enumerate() {
            fnv.frame(&Request::Mutate {
                expected_revision: revision,
                ops: ops.clone(),
            });
            fnv.frame(&Request::LocateBatch {
                points: self.pool[batch_index(step)].clone(),
            });
            revision += ops.len() as u64;
        }
        fnv.finish()
    }

    fn points_per_op(&self) -> u64 {
        BATCH_POINTS as u64
    }

    fn shutdown(self) {
        drop(self.writer);
        drop(self.reader);
        self.server.shutdown();
    }
}

/// Replays one step into the registry, the engine (apply, rebuild and
/// the untiled batch), the tiled executor and the protocol.
#[allow(clippy::too_many_arguments)]
fn replay_step(
    st: &mut ClientStats,
    op: u64,
    replay: &mut Replay,
    before: u64,
    ops: &[SurgeryOp],
    points: &[Point],
    revision: u64,
    answers: &[Located],
) -> bool {
    let log = &mut st.log;
    let mirror_revision = replay.mirror.revision();
    let mutated = log.time(op, "registry.mutate", Role::Layer, || {
        replay.mirror.mutate(mirror_revision, ops)
    });
    let Ok(deltas) = replay.net.apply_ops(ops) else {
        return false;
    };
    let engine = &mut replay.engine;
    let applied = log.time(op, "engine.apply", Role::Probe, || {
        deltas.iter().try_for_each(|d| engine.apply(d))
    });
    let rebuilt = log.time(op, "engine.rebuild", Role::Probe, || {
        VoronoiAssisted::new(&replay.net)
    });
    drop(rebuilt);

    let engine = &replay.engine;
    let n = points.len();
    let mut out = vec![Located::Silent; n];
    log.time(op, "engine.locate_batch", Role::Layer, || {
        engine.locate_batch(points, &mut out)
    });
    log.count(op, "engine.points", n as f64);
    let engine_ok = out == answers;

    let cfg = TileConfig::default();
    let eval = engine.evaluator();
    log.count(
        op,
        "tile.engaged",
        f64::from(u8::from(cfg.engages(n, eval.len()))),
    );
    let select = if eval.is_uniform_power() {
        Select::Nearest
    } else {
        Select::MaxEnergy
    };
    let stats = log.time(op, "tile.locate_batch_tiled", Role::Probe, || {
        locate_batch_tiled(eval, engine.kernel(), select, points, &mut out, &cfg, |p| {
            engine.locate(p)
        })
    });
    log.count(op, "tile.points", stats.points as f64);
    log.count(op, "tile.tiles", stats.tiles as f64);
    log.count(op, "tile.pruned_tiles", stats.pruned_tiles as f64);
    log.count(
        op,
        "tile.candidate_stations",
        stats.candidate_stations as f64,
    );
    log.count(op, "tile.fallback_points", stats.fallback_points as f64);
    let tiled_ok = out == answers;

    let requests = [
        Request::Mutate {
            expected_revision: before,
            ops: ops.to_vec(),
        },
        Request::LocateBatch {
            points: points.to_vec(),
        },
    ];
    let responses = [
        Response::Mutated {
            revision,
            applied: ops.len() as u32,
        },
        Response::Located {
            revision,
            answers: answers.to_vec(),
        },
    ];
    let protocol_ok = replay_protocol(log, op, &requests, &responses);
    mutated.is_ok() && applied.is_ok() && engine_ok && tiled_ok && protocol_ok
}
