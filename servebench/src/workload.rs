//! What the three workloads share: the workload interface, closed-loop
//! bookkeeping, and the protocol-layer replay.

use crate::trace::{median, Role, SpanLog};
use sinr_core::Located;
use sinr_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use sinr_server::{Request, Response};
use std::time::{Duration, Instant};

/// Answers kept for the correctness gate: every `SAMPLE_EVERY`-th op of
/// a client, at most `MAX_SAMPLES` per client and phase.
pub const SAMPLE_EVERY: u64 = 8;
pub const MAX_SAMPLES: usize = 32;

/// Ops each set-up sends before the clock starts, split over its
/// clients: set-up time then averages over a few inputs instead of
/// hanging on one seed-dependent op.
pub const WARM_UP_OPS: u64 = 4;

/// `ops_per_s` is the median over blocks of this many consecutive ops
/// of one client — whole cycles of the `bulk_locate` and `mobile_churn`
/// pools, one zoom sweep of `heatmap_pan` — so a short stall on a shared
/// machine moves a few blocks, not the result.
pub const BLOCK_OPS: usize = 16;

/// One workload's live state: its server, connected clients and inputs.
pub trait Workload: Sized {
    /// Generates the inputs, spawns the server, registers and attaches,
    /// and warms up. This is what `setup_s` times.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs the closed loop until `until`; with `traced`, each op is
    /// followed by its per-layer replay. Workloads whose ops do not
    /// change server state start every phase from their first op, so
    /// equal op counts mean equal frames.
    fn run(&mut self, until: Until, traced: bool) -> Phase;
    /// Checks the kept answers bit-for-bit against a local engine of the
    /// same backend at the same revision; returns (checked, mismatched).
    fn verify(&mut self) -> (u64, u64);
    /// FNV-1a over the first request frames each client sent: equal
    /// seeds must give equal digests.
    fn frames_digest(&self) -> u64;
    /// Query points (or pixels) answered by one op.
    fn points_per_op(&self) -> u64;
    /// Closes the clients and shuts the server down.
    fn shutdown(self);
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// This many ops per client.
    Ops(u64),
}

impl Until {
    pub fn more(self, done: u64) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() < t,
            Until::Ops(n) => done < n,
        }
    }
}

/// One client thread's closed loop.
pub struct ClientStats {
    /// Start of every attempted op, then the loop's end.
    pub marks: Vec<Instant>,
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub replay_time: Duration,
    pub log: SpanLog,
}

impl ClientStats {
    pub fn new(epoch: Instant) -> ClientStats {
        ClientStats {
            marks: Vec::new(),
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            replay_time: Duration::ZERO,
            log: SpanLog::new(epoch),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }
}

/// The merged result of one measured phase.
pub struct Phase {
    pub clients: u64,
    /// Ops per second of each full block of `BLOCK_OPS` ops, per client.
    pub block_rates: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall: Duration,
    /// Ops per second of wall time outside the replays: the rate the
    /// server sustained while traced. Replays never overlap a request
    /// (`bulk_locate` runs them exclusively), so their summed time is
    /// time the server had nothing to serve.
    pub rate_outside_replay: f64,
    pub log: SpanLog,
}

impl Phase {
    pub fn merge(epoch: Instant, wall: Duration, clients: Vec<ClientStats>) -> Phase {
        let mut phase = Phase {
            clients: clients.len() as u64,
            block_rates: Vec::new(),
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            wall,
            rate_outside_replay: 0.0,
            log: SpanLog::new(epoch),
        };
        let mut replay = Duration::ZERO;
        for c in clients {
            replay += c.replay_time;
            let blocks = c.marks.len().saturating_sub(1) / BLOCK_OPS;
            phase.block_rates.extend((0..blocks).map(|b| {
                let span = c.marks[(b + 1) * BLOCK_OPS] - c.marks[b * BLOCK_OPS];
                BLOCK_OPS as f64 / span.as_secs_f64()
            }));
            phase.latencies_ms.extend(c.latencies_ms);
            phase.attempted += c.attempted;
            phase.failed += c.failed;
            phase.errors.extend(c.errors);
            phase.log.merge(c.log);
        }
        let serving = wall.saturating_sub(replay).as_secs_f64();
        if serving > 0.0 {
            phase.rate_outside_replay = phase.latencies_ms.len() as f64 / serving;
        }
        phase
    }

    /// Ops per client, for a later phase of the same length.
    pub fn ops_per_client(&self) -> u64 {
        self.attempted / self.clients.max(1)
    }

    /// Completed ops over the phase's wall time.
    pub fn wall_rate(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64()
    }

    /// The reported throughput: all clients at the median block rate
    /// (the wall rate when the phase was too short for one block).
    pub fn ops_per_s(&self) -> f64 {
        if self.block_rates.is_empty() {
            self.wall_rate()
        } else {
            self.clients as f64 * median(&self.block_rates)
        }
    }
}

/// Run-length form of an answer vector: what `Located` and `Heatmap`
/// frames carry on the wire, and how heatmap samples are kept.
pub fn runs(answers: &[Located]) -> Vec<(Located, u32)> {
    let mut out: Vec<(Located, u32)> = Vec::new();
    for &a in answers {
        match out.last_mut() {
            Some((last, len)) if *last == a => *len += 1,
            _ => out.push((a, 1)),
        }
    }
    out
}

/// Replays an op's requests and responses through the protocol codec:
/// one `protocol.encode` and one `protocol.decode` layer span, plus the
/// wire byte counts (payload and 4-byte length prefix). Returns false
/// if a frame did not decode to what was encoded.
pub fn replay_protocol(
    log: &mut SpanLog,
    op: u64,
    requests: &[Request],
    responses: &[Response],
) -> bool {
    let (req_frames, resp_frames) = log.time(op, "protocol.encode", Role::Layer, || {
        let req: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
        let resp: Vec<Vec<u8>> = responses.iter().map(encode_response).collect();
        (req, resp)
    });
    let (req_back, resp_back) = log.time(op, "protocol.decode", Role::Layer, || {
        let req: Vec<_> = req_frames.iter().map(|f| decode_request(f)).collect();
        let resp: Vec<_> = resp_frames.iter().map(|f| decode_response(f)).collect();
        (req, resp)
    });
    let wire = |frames: &[Vec<u8>]| frames.iter().map(|f| f.len() + 4).sum::<usize>() as f64;
    log.count(op, "protocol.req_bytes", wire(&req_frames));
    log.count(op, "protocol.resp_bytes", wire(&resp_frames));
    let answer_runs: usize = responses
        .iter()
        .map(|r| match r {
            Response::Located { answers, .. } => runs(answers).len(),
            Response::Heatmap { cells, .. } => runs(cells).len(),
            _ => 0,
        })
        .sum();
    log.count(op, "protocol.resp_runs", answer_runs as f64);
    let requests_ok = req_back
        .iter()
        .zip(requests)
        .all(|(back, sent)| back.as_ref().ok() == Some(sent));
    let responses_ok = resp_back
        .iter()
        .zip(responses)
        .all(|(back, got)| back.as_ref().ok() == Some(got));
    requests_ok && responses_ok
}

/// FNV-1a, folded over whole frames.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn frame(&mut self, request: &Request) {
        for b in encode_request(request) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Frames per client folded into [`Workload::frames_digest`].
pub const DIGEST_FRAMES: u64 = 16;
