//! Seeded input generation. Every input of every workload is a pure
//! function of the `--seed` argument, drawn from the benchmark's own
//! splitmix64 stream — not from the library's generators — so a change
//! to the program under test can never change what the benchmark sends.

use sinr_core::{Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use sinr_server::NetworkSpec;

/// Stations in every workload's network.
pub const STATIONS: usize = 4096;
/// Background noise `N` of every network.
pub const NOISE: f64 = 0.01;
/// Reception threshold `β` of every network.
pub const BETA: f64 = 2.0;
/// Stations sit uniformly in `[-HALF, HALF]²`: density 1/4 per unit²,
/// so a heatmap window of half-width 4–8 holds a few dozen zones.
pub const HALF: f64 = 64.0;
/// In the clustered-power network, every `MACRO_EVERY`-th station is a
/// macro cell of power `MACRO_POWER`; the rest draw from `0.5..1.5`.
pub const MACRO_EVERY: usize = 64;
/// Power of a macro station (8× the mean small-cell power).
pub const MACRO_POWER: f64 = 8.0;

/// Independent sub-streams of one seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Network = 1,
    Points = 2,
    Windows = 3,
    Churn = 4,
}

/// splitmix64: small, fast and fixed forever.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Rng {
        let mut rng = Rng(seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// Uniform in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn point_in_box(&mut self, half: f64) -> Point {
        Point::new(self.uniform(-half, half), self.uniform(-half, half))
    }
}

/// The uniform-power network `bulk_locate` and `heatmap_pan` serve.
pub fn uniform_network(seed: u64) -> Network {
    let mut rng = Rng::new(seed, Stream::Network);
    let positions = (0..STATIONS).map(|_| rng.point_in_box(HALF)).collect();
    Network::uniform(positions, NOISE, BETA).expect("generated network is valid")
}

/// The clustered-power network `mobile_churn` serves: one macro station
/// per `MACRO_EVERY`, small cells in `0.5..1.5`.
pub fn clustered_power_network(seed: u64) -> Network {
    let mut rng = Rng::new(seed, Stream::Network);
    let stations = (0..STATIONS)
        .map(|i| {
            let position = rng.point_in_box(HALF);
            let power = if i % MACRO_EVERY == 0 {
                MACRO_POWER
            } else {
                rng.uniform(0.5, 1.5)
            };
            (position, power)
        })
        .collect();
    let spec = NetworkSpec {
        noise: NOISE,
        beta: BETA,
        alpha: 2.0,
        stations,
    };
    spec.build().expect("generated network is valid")
}

/// `batches` query batches of `per_batch` points, uniform over the
/// station box plus a 5% margin (some points fall outside every zone).
pub fn point_pool(seed: u64, batches: usize, per_batch: usize) -> Vec<Vec<Point>> {
    let mut rng = Rng::new(seed, Stream::Points);
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| rng.point_in_box(HALF * 1.05))
                .collect()
        })
        .collect()
}

/// A pan/zoom pool of square windows `(min, max)`: centres uniform over
/// the station box (kept 8 units inside it), half-widths sweeping
/// 4 → 8 → 4 over every 16 windows, so each seed sees the same mix of
/// zoom levels and only the places change.
pub fn pan_zoom_windows(seed: u64, count: usize) -> Vec<(Point, Point)> {
    const ZOOM_PERIOD: f64 = 16.0;
    let mut rng = Rng::new(seed, Stream::Windows);
    (0..count)
        .map(|i| {
            let phase = std::f64::consts::TAU * i as f64 / ZOOM_PERIOD;
            let h = 6.0 - 2.0 * phase.cos();
            let c = rng.point_in_box(HALF - 8.0);
            (Point::new(c.x - h, c.y - h), Point::new(c.x + h, c.y + h))
        })
        .collect()
}

/// Mobile-station timesteps: every step moves `MOVES` random stations by
/// a random-walk stride of at most one unit per axis (kept inside the
/// station box) and re-powers `SET_POWERS` random small cells within
/// `0.5..1.5`, so the macro/small-cell structure persists. Station
/// count never changes, so every op is valid at every revision.
pub struct ChurnScript {
    rng: Rng,
    positions: Vec<Point>,
}

impl ChurnScript {
    pub const MOVES: usize = 8;
    pub const SET_POWERS: usize = 2;

    pub fn new(seed: u64, net: &Network) -> ChurnScript {
        ChurnScript {
            rng: Rng::new(seed, Stream::Churn),
            positions: net.positions().to_vec(),
        }
    }

    pub fn next_step(&mut self) -> Vec<SurgeryOp> {
        let mut ops = Vec::with_capacity(Self::MOVES + Self::SET_POWERS);
        for _ in 0..Self::MOVES {
            let id = self.rng.index(self.positions.len());
            let from = self.positions[id];
            let to = Point::new(
                (from.x + self.rng.uniform(-1.0, 1.0)).clamp(-HALF, HALF),
                (from.y + self.rng.uniform(-1.0, 1.0)).clamp(-HALF, HALF),
            );
            self.positions[id] = to;
            ops.push(SurgeryOp::Move {
                id: StationId(id),
                to,
            });
        }
        for _ in 0..Self::SET_POWERS {
            let cells = self.positions.len() / MACRO_EVERY;
            let id = self.rng.index(cells) * MACRO_EVERY + 1 + self.rng.index(MACRO_EVERY - 1);
            ops.push(SurgeryOp::SetPower {
                id: StationId(id),
                power: self.rng.uniform(0.5, 1.5),
            });
        }
        ops
    }
}
