//! `heatmap_pan`: one closed-loop client attached (`SimdScan`) to the
//! uniform-power network, sending 1024×1024 `HeatmapBatch` frames over a
//! seeded pan/zoom sequence of windows. Quadtree refinement with tile
//! cell certificates, and the megapixel run-length response, dominate.

use crate::inputs;
use crate::trace::{ms, Role};
use crate::workload::{
    replay_protocol, runs, ClientStats, Fnv, Phase, Until, Workload, DIGEST_FRAMES, MAX_SAMPLES,
    SAMPLE_EVERY, WARM_UP_OPS,
};
use sinr_core::{Located, Network, SimdScan};
use sinr_diagram::quadtree::hierarchical_map;
use sinr_diagram::{PixelLabel, ReceptionMap};
use sinr_geometry::{BBox, Point};
use sinr_server::{BackendId, Client, Request, Response, Server, ServerHandle, TcpTransport};
use std::collections::BTreeMap;
use std::time::Instant;

const WORKERS: usize = 2;
const SIDE: u32 = 1024;
const WINDOWS: usize = 64;
const NAME: &str = "heatmap";

pub struct HeatmapPan {
    net: Network,
    windows: Vec<(Point, Point)>,
    server: ServerHandle,
    client: Client<TcpTransport>,
    revision: u64,
    /// Kept rasters: (window index, run-length answers).
    samples: Vec<(usize, Vec<(Located, u32)>)>,
}

/// The raster as the server sends it: bottom-first, row-major.
fn cells_of(map: &ReceptionMap) -> Vec<Located> {
    let mut cells = Vec::with_capacity((SIDE * SIDE) as usize);
    for row in 0..SIDE as usize {
        for col in 0..SIDE as usize {
            cells.push(match map.at(col, row) {
                PixelLabel::Heard(i) => Located::Reception(i),
                PixelLabel::Silent => Located::Silent,
            });
        }
    }
    cells
}

impl Workload for HeatmapPan {
    fn setup(seed: u64) -> Result<Self, String> {
        let net = inputs::uniform_network(seed);
        let windows = inputs::pan_zoom_windows(seed, WINDOWS);
        let server = Server::bind("127.0.0.1:0")
            .and_then(|s| s.spawn_pooled(WORKERS))
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let revision = client
            .register_network(NAME, &net)
            .map_err(|e| format!("register: {e}"))?;
        client
            .attach(NAME, BackendId::SimdScan, 0.0)
            .map_err(|e| format!("attach: {e}"))?;
        // Spread over the zoom sweep: half-widths 4, 6, 8, 6.
        for i in 0..WARM_UP_OPS as usize {
            let (min, max) = windows[4 * i];
            let (_, cells, _) = client
                .heatmap_batch(min, max, SIDE, SIDE)
                .map_err(|e| format!("warm-up: {e}"))?;
            if cells.len() != (SIDE * SIDE) as usize {
                return Err("warm-up answered the wrong number of pixels".into());
            }
        }
        Ok(HeatmapPan {
            net,
            windows,
            server,
            client,
            revision,
            samples: Vec::new(),
        })
    }

    fn run(&mut self, until: Until, traced: bool) -> Phase {
        let replay = traced.then(|| SimdScan::new(&self.net));
        let epoch = Instant::now();
        let mut st = ClientStats::new(epoch);
        let mut kept = 0;
        while until.more(st.attempted) {
            let (op, idx) = (st.attempted, st.attempted as usize % WINDOWS);
            let (min, max) = self.windows[idx];
            st.attempted += 1;
            let t0 = Instant::now();
            st.marks.push(t0);
            let result = self.client.heatmap_batch(min, max, SIDE, SIDE);
            let t1 = Instant::now();
            let (cells, evaluated) = match result {
                Ok((rev, cells, evaluated))
                    if rev == self.revision && cells.len() == (SIDE * SIDE) as usize =>
                {
                    (cells, evaluated)
                }
                Ok((rev, cells, _)) => {
                    st.fail(format!("revision {rev}, {} pixels", cells.len()));
                    continue;
                }
                Err(e) => {
                    st.fail(e.to_string());
                    break;
                }
            };
            st.latencies_ms.push(ms(t1 - t0));
            if let Some(engine) = &replay {
                let r0 = Instant::now();
                st.log.op(op, t0, t1);
                if !replay_op(
                    &mut st,
                    op,
                    engine,
                    (min, max),
                    self.revision,
                    &cells,
                    evaluated,
                ) {
                    st.fail(format!("op {op}: replay disagrees with the server"));
                }
                st.replay_time += r0.elapsed();
            }
            if op.is_multiple_of(SAMPLE_EVERY) && kept < MAX_SAMPLES {
                kept += 1;
                self.samples.push((idx, runs(&cells)));
            }
        }
        st.marks.push(Instant::now());
        Phase::merge(epoch, epoch.elapsed(), vec![st])
    }

    fn verify(&mut self) -> (u64, u64) {
        let engine = SimdScan::new(&self.net);
        let mut expected: BTreeMap<usize, Vec<(Located, u32)>> = BTreeMap::new();
        let mut mismatched = 0;
        for (idx, got) in &self.samples {
            let want = expected.entry(*idx).or_insert_with(|| {
                let (min, max) = self.windows[*idx];
                let (map, _) =
                    hierarchical_map(&engine, BBox::new(min, max), SIDE as usize, SIDE as usize);
                runs(&cells_of(&map))
            });
            if got != want {
                mismatched += 1;
            }
        }
        (self.samples.len() as u64, mismatched)
    }

    fn frames_digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        for i in 0..DIGEST_FRAMES {
            let (min, max) = self.windows[i as usize % WINDOWS];
            fnv.frame(&Request::HeatmapBatch {
                min,
                max,
                width: SIDE,
                height: SIDE,
            });
        }
        fnv.finish()
    }

    fn points_per_op(&self) -> u64 {
        u64::from(SIDE * SIDE)
    }

    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Replays one op into the quadtree rasteriser and the protocol.
fn replay_op(
    st: &mut ClientStats,
    op: u64,
    engine: &SimdScan,
    (min, max): (Point, Point),
    revision: u64,
    cells: &[Located],
    evaluated: u64,
) -> bool {
    let log = &mut st.log;
    let (map, stats) = log.time(op, "quadtree.map", Role::Layer, || {
        hierarchical_map(engine, BBox::new(min, max), SIDE as usize, SIDE as usize)
    });
    log.count(op, "quadtree.pixels", stats.pixels as f64);
    log.count(op, "quadtree.cells_evaluated", stats.cells_evaluated as f64);
    log.count(op, "quadtree.certificates", stats.certificates as f64);
    log.count(op, "quadtree.point_certified", stats.point_certified as f64);
    let map_ok = cells_of(&map) == cells && stats.cells_evaluated == evaluated;
    let request = Request::HeatmapBatch {
        min,
        max,
        width: SIDE,
        height: SIDE,
    };
    let response = Response::Heatmap {
        revision,
        width: SIDE,
        height: SIDE,
        cells_evaluated: evaluated,
        cells: cells.to_vec(),
    };
    let protocol_ok = replay_protocol(log, op, &[request], &[response]);
    map_ok && protocol_ok
}
