//! Spans and counts recorded from the benchmark's side of each layer
//! boundary, and the per-layer metrics derived from them.
//!
//! A traced op is one root span (`op`, the client call) followed, after
//! the round trip returned, by replays of that op's exact inputs into
//! the public functions of each layer. A replayed call is a `layer`
//! child when it redoes work the server did inside the op (its time is
//! attributed to that layer and subtracted from the op's self time), or
//! a `probe` when it only explains a layer (tile statistics, apply
//! against rebuild) and is not subtracted. Spans stay in memory and are
//! written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Op,
    Layer,
    Probe,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Op => "op",
            Role::Layer => "layer",
            Role::Probe => "probe",
        }
    }
}

struct Span {
    op: u64,
    name: &'static str,
    role: Role,
    start_ns: u64,
    end_ns: u64,
}

struct Count {
    op: u64,
    name: &'static str,
    value: f64,
}

/// One client thread's spans and counts; threads merge theirs at the end.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records the root span of `op`.
    pub fn op(&mut self, op: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            op,
            name: "op",
            role: Role::Op,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a child span of `op`.
    pub fn time<R>(&mut self, op: u64, name: &'static str, role: Role, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            op,
            name,
            role,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn count(&mut self, op: u64, name: &'static str, value: f64) {
        self.counts.push(Count { op, name, value });
    }

    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    /// Writes every span and count as JSON lines.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"kind":"span","op":{},"name":"{}","role":"{}","start_ns":{},"end_ns":{}}}"#,
                s.op,
                s.name,
                s.role.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                r#"{{"kind":"count","op":{},"name":"{}","value":{}}}"#,
                c.op, c.name, c.value
            )?;
        }
        out.flush()
    }

    /// The per-layer metrics of `per_layer` in `BENCHMARK.json`, in
    /// order, as `(name, value, unit)`. A layer a workload does not use
    /// reads 0. `overhead_frac` is computed by the caller from the
    /// untraced and traced rates.
    pub fn per_layer(&self, overhead_frac: f64) -> Vec<(&'static str, f64, &'static str)> {
        let a = Aggregate::of(self);
        let op_ns = a.span_total("op");
        vec![
            (
                "engine.locate_batch_ms",
                a.span_median_ms("engine.locate_batch"),
                "ms",
            ),
            (
                "engine.ns_per_point",
                ratio(
                    a.span_total("engine.locate_batch"),
                    a.count_total("engine.points"),
                ),
                "ns",
            ),
            (
                "engine.share",
                ratio(a.span_total("engine.locate_batch"), op_ns),
                "fraction",
            ),
            (
                "tile.engaged_frac",
                a.count_mean("tile.engaged"),
                "fraction",
            ),
            (
                "tile.mean_candidates",
                ratio(
                    a.count_total("tile.candidate_stations"),
                    a.count_total("tile.pruned_tiles"),
                ),
                "count",
            ),
            (
                "tile.pruned_tile_frac",
                ratio(
                    a.count_total("tile.pruned_tiles"),
                    a.count_total("tile.tiles"),
                ),
                "fraction",
            ),
            (
                "tile.fallback_frac",
                ratio(
                    a.count_total("tile.fallback_points"),
                    a.count_total("tile.points"),
                ),
                "fraction",
            ),
            ("quadtree.map_ms", a.span_median_ms("quadtree.map"), "ms"),
            (
                "quadtree.evaluated_frac",
                ratio(
                    a.count_total("quadtree.cells_evaluated"),
                    a.count_total("quadtree.pixels"),
                ),
                "fraction",
            ),
            (
                "quadtree.certificates",
                a.count_mean("quadtree.certificates"),
                "count",
            ),
            (
                "quadtree.point_certified_frac",
                ratio(
                    a.count_total("quadtree.point_certified"),
                    a.count_total("quadtree.cells_evaluated"),
                ),
                "fraction",
            ),
            (
                "quadtree.share",
                ratio(a.span_total("quadtree.map"), op_ns),
                "fraction",
            ),
            (
                "protocol.encode_us",
                a.span_median_ms("protocol.encode") * 1e3,
                "us",
            ),
            (
                "protocol.decode_us",
                a.span_median_ms("protocol.decode") * 1e3,
                "us",
            ),
            (
                "protocol.req_bytes",
                a.count_mean("protocol.req_bytes"),
                "B",
            ),
            (
                "protocol.resp_bytes",
                a.count_mean("protocol.resp_bytes"),
                "B",
            ),
            (
                "protocol.resp_runs",
                a.count_mean("protocol.resp_runs"),
                "count",
            ),
            (
                "registry.mutate_ms",
                a.span_median_ms("registry.mutate"),
                "ms",
            ),
            ("engine.apply_ms", a.span_median_ms("engine.apply"), "ms"),
            (
                "engine.rebuild_ms",
                a.span_median_ms("engine.rebuild"),
                "ms",
            ),
            ("server.residual_ms", median(&a.self_ns) / 1e6, "ms"),
            (
                "server.residual_share",
                ratio(a.self_ns.iter().sum(), op_ns),
                "fraction",
            ),
            ("trace.overhead_frac", overhead_frac, "fraction"),
        ]
    }
}

/// Per-op sums of each span and count name.
struct Aggregate {
    /// name → per-op summed duration (ns).
    spans: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    /// name → per-op summed value.
    counts: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    /// Per op: root duration minus its layer children.
    self_ns: Vec<f64>,
}

impl Aggregate {
    fn of(log: &SpanLog) -> Aggregate {
        let mut spans: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        let mut layers: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &log.spans {
            let d = (s.end_ns - s.start_ns) as f64;
            *spans.entry(s.name).or_default().entry(s.op).or_default() += d;
            if s.role == Role::Layer {
                *layers.entry(s.op).or_default() += d;
            }
        }
        let mut counts: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for c in &log.counts {
            *counts.entry(c.name).or_default().entry(c.op).or_default() += c.value;
        }
        let self_ns = spans
            .get("op")
            .map(|ops| {
                ops.iter()
                    .map(|(op, d)| d - layers.get(op).copied().unwrap_or(0.0))
                    .collect()
            })
            .unwrap_or_default();
        Aggregate {
            spans,
            counts,
            self_ns,
        }
    }

    fn span_total(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |m| m.values().sum())
    }

    fn span_median_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |m| {
            median(&m.values().copied().collect::<Vec<_>>()) / 1e6
        })
    }

    fn count_total(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |m| m.values().sum())
    }

    /// Mean over the ops that recorded `name`.
    fn count_mean(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .map_or(0.0, |m| ratio(m.values().sum(), m.len() as f64))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Seconds as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
