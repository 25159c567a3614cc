//! `bulk_locate`: two closed-loop clients, each on its own thread,
//! attached to one registered uniform-power network (`SimdScan`), each
//! sending 16384-point `LocateBatch` frames from a seeded pool. The
//! tiled executor and the SIMD kernel do almost all of the work.

use crate::inputs;
use crate::trace::{ms, Role};
use crate::workload::{
    replay_protocol, ClientStats, Fnv, Phase, Until, Workload, DIGEST_FRAMES, MAX_SAMPLES,
    SAMPLE_EVERY, WARM_UP_OPS,
};
use sinr_core::tile::{locate_batch_tiled, Select};
use sinr_core::{Located, Network, QueryEngine, SimdScan, TileConfig};
use sinr_geometry::Point;
use sinr_server::{BackendId, Client, Request, Response, Server, ServerHandle, TcpTransport};
use std::collections::BTreeMap;
use std::sync::RwLock;
use std::time::Instant;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const BATCH_POINTS: usize = 16_384;
const POOL_BATCHES: usize = 8;
const NAME: &str = "bulk";

pub struct BulkLocate {
    net: Network,
    pool: Vec<Vec<Point>>,
    server: ServerHandle,
    clients: Vec<Client<TcpTransport>>,
    revision: u64,
    /// Kept answers: (pool index, answers).
    samples: Vec<(usize, Vec<Located>)>,
}

/// Op `i` of client `k` sends this pool batch: the clients interleave
/// over the pool, so every frame is fixed by the seed.
fn batch_index(k: usize, i: u64) -> usize {
    (i as usize * CLIENTS + k) % POOL_BATCHES
}

impl Workload for BulkLocate {
    fn setup(seed: u64) -> Result<Self, String> {
        let net = inputs::uniform_network(seed);
        let pool = inputs::point_pool(seed, POOL_BATCHES, BATCH_POINTS);
        let server = Server::bind("127.0.0.1:0")
            .and_then(|s| s.spawn_pooled(WORKERS))
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut clients = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            clients.push(Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
        }
        let revision = clients[0]
            .register_network(NAME, &net)
            .map_err(|e| format!("register: {e}"))?;
        for client in &mut clients {
            client
                .attach(NAME, BackendId::SimdScan, 0.0)
                .map_err(|e| format!("attach: {e}"))?;
        }
        for i in 0..WARM_UP_OPS / CLIENTS as u64 {
            for (k, client) in clients.iter_mut().enumerate() {
                let (_, answers) = client
                    .locate_batch(&pool[batch_index(k, i)])
                    .map_err(|e| format!("warm-up: {e}"))?;
                if answers.len() != BATCH_POINTS {
                    return Err("warm-up answered the wrong number of points".into());
                }
            }
        }
        Ok(BulkLocate {
            net,
            pool,
            server,
            clients,
            revision,
            samples: Vec::new(),
        })
    }

    fn run(&mut self, until: Until, traced: bool) -> Phase {
        let replay = traced.then(|| Replay {
            engine: SimdScan::new(&self.net),
            exclusive: RwLock::new(()),
        });
        let epoch = Instant::now();
        let (pool, revision, replay) = (&self.pool, self.revision, replay.as_ref());
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(k, client)| {
                    s.spawn(move || client_loop(k, client, pool, revision, until, epoch, replay))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = epoch.elapsed();
        let mut stats = Vec::with_capacity(CLIENTS);
        for (st, samples) in results {
            self.samples.extend(samples);
            stats.push(st);
        }
        Phase::merge(epoch, wall, stats)
    }

    fn verify(&mut self) -> (u64, u64) {
        let engine = SimdScan::new(&self.net);
        let mut expected: BTreeMap<usize, Vec<Located>> = BTreeMap::new();
        let mut mismatched = 0;
        for (idx, answers) in &self.samples {
            let want = expected.entry(*idx).or_insert_with(|| {
                let mut out = vec![Located::Silent; BATCH_POINTS];
                engine.locate_batch(&self.pool[*idx], &mut out);
                out
            });
            if answers != want {
                mismatched += 1;
            }
        }
        (self.samples.len() as u64, mismatched)
    }

    fn frames_digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        for k in 0..CLIENTS {
            for i in 0..DIGEST_FRAMES {
                fnv.frame(&Request::LocateBatch {
                    points: self.pool[batch_index(k, i)].clone(),
                });
            }
        }
        fnv.finish()
    }

    fn points_per_op(&self) -> u64 {
        BATCH_POINTS as u64
    }

    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// The traced phase's local engine. Replays take `exclusive` for
/// writing and round trips for reading, so a replay never shares the
/// cores with the other client's request: layer times are uncontended,
/// and contention shows in the op's self time.
struct Replay {
    engine: SimdScan,
    exclusive: RwLock<()>,
}

fn client_loop(
    k: usize,
    client: &mut Client<TcpTransport>,
    pool: &[Vec<Point>],
    revision: u64,
    until: Until,
    epoch: Instant,
    replay: Option<&Replay>,
) -> (ClientStats, Vec<(usize, Vec<Located>)>) {
    let mut st = ClientStats::new(epoch);
    let mut samples = Vec::new();
    while until.more(st.attempted) {
        let nth = st.attempted;
        let idx = batch_index(k, nth);
        let points = &pool[idx];
        let op = nth * CLIENTS as u64 + k as u64;
        st.attempted += 1;
        let shared = replay.map(|r| r.exclusive.read().expect("replay lock"));
        let t0 = Instant::now();
        st.marks.push(t0);
        let result = client.locate_batch(points);
        let t1 = Instant::now();
        drop(shared);
        let answers = match result {
            Ok((rev, answers)) if rev == revision && answers.len() == points.len() => answers,
            Ok((rev, answers)) => {
                st.fail(format!("revision {rev}, {} answers", answers.len()));
                continue;
            }
            Err(e) => {
                st.fail(e.to_string());
                break;
            }
        };
        st.latencies_ms.push(ms(t1 - t0));
        if let Some(replay) = replay {
            let _alone = replay.exclusive.write().expect("replay lock");
            let r0 = Instant::now();
            st.log.op(op, t0, t1);
            if !replay_op(&mut st, op, &replay.engine, points, revision, &answers) {
                st.fail(format!("op {op}: replay disagrees with the server"));
            }
            st.replay_time += r0.elapsed();
        }
        if nth.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES {
            samples.push((idx, answers));
        }
    }
    st.marks.push(Instant::now());
    (st, samples)
}

/// Replays one op into the engine, the tiled executor and the protocol.
fn replay_op(
    st: &mut ClientStats,
    op: u64,
    engine: &SimdScan,
    points: &[Point],
    revision: u64,
    answers: &[Located],
) -> bool {
    let n = points.len();
    let log = &mut st.log;
    let mut out = vec![Located::Silent; n];
    log.time(op, "engine.locate_batch", Role::Layer, || {
        engine.locate_batch(points, &mut out)
    });
    log.count(op, "engine.points", n as f64);
    let engine_ok = out == answers;

    let cfg = TileConfig::default();
    log.count(
        op,
        "tile.engaged",
        f64::from(u8::from(cfg.engages(n, engine.evaluator().len()))),
    );
    let stats = log.time(op, "tile.locate_batch_tiled", Role::Probe, || {
        locate_batch_tiled(
            engine.evaluator(),
            engine.kernel(),
            Select::MaxEnergy,
            points,
            &mut out,
            &cfg,
            |p| engine.locate(p),
        )
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

    let request = Request::LocateBatch {
        points: points.to_vec(),
    };
    let response = Response::Located {
        revision,
        answers: answers.to_vec(),
    };
    let protocol_ok = replay_protocol(log, op, &[request], &[response]);
    engine_ok && tiled_ok && protocol_ok
}
