//! The repository's end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload bulk_locate|heatmap_pan|mobile_churn \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload drives the real pooled server (`Server::spawn_pooled`,
//! 2 workers) over loopback TCP with `sinr_server::Client`, closed loop,
//! for `--seconds`, then checks a sample of the answers bit-for-bit
//! against a local engine. With `--trace 0` the last stdout line is the
//! end-to-end result; with `--trace 1` a third of the time runs
//! untraced, then the same number of ops runs traced, and the last line
//! carries the per-layer metrics derived from the spans (written to
//! `servebench/traces/`). The process exits non-zero if any op failed or
//! any checked answer differed. See `servebench/README.md`.

mod bulk;
mod churn;
mod heatmap;
mod inputs;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, quantile};
use workload::{Phase, Until, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What the benchmark prints last.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# env nproc={} kernel={} avx512={} rustc=\"{}\"",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sinr_core::SimdKernel::detect().name(),
        sinr_core::SimdKernel::Avx512.is_supported(),
        env!("SERVEBENCH_RUSTC"),
    );
    let outcome = match args.workload.as_str() {
        "bulk_locate" => drive::<bulk::BulkLocate>(&args),
        "heatmap_pan" => drive::<heatmap::HeatmapPan>(&args),
        "mobile_churn" => drive::<churn::MobileChurn>(&args),
        other => Err(format!(
            "unknown workload '{other}' (bulk_locate, heatmap_pan, mobile_churn)"
        )),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#))
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn drive<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut live: Option<W> = None;
    for _ in 0..reps {
        if let Some(old) = live.take() {
            old.shutdown();
        }
        let t = Instant::now();
        live = Some(W::setup(args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = live.expect("at least one setup ran");
    let secs = Duration::from_secs_f64(args.seconds);

    let outcome = if args.trace {
        // The traced phase repeats the untraced phase's op count (and,
        // where ops leave the server unchanged, its exact frames), so the
        // two rates compare like for like.
        let untraced = w.run(Until::Deadline(Instant::now() + secs / 3), false);
        let traced = w.run(Until::Ops(untraced.ops_per_client()), true);
        let (checked, mismatched) = w.verify();
        report(
            &args.workload,
            "untraced",
            &untraced,
            w.points_per_op(),
            checked,
            mismatched,
        );
        report(
            &args.workload,
            "traced",
            &traced,
            w.points_per_op(),
            checked,
            mismatched,
        );
        let overhead = 1.0 - traced.rate_outside_replay / untraced.wall_rate();
        let path = format!(
            "servebench/traces/{}-seed{}.jsonl",
            args.workload, args.seed
        );
        let header = format!(
            r#"{{"kind":"header","workload":"{}","seed":{},"seconds":{},"kernel":"{}","nproc":{}}}"#,
            args.workload,
            args.seed,
            args.seconds,
            sinr_core::SimdKernel::detect().name(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        traced
            .log
            .write(std::path::Path::new(&path), &header)
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("# spans written to {path}");
        Outcome {
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed + mismatched,
            metrics: traced.log.per_layer(overhead),
        }
    } else {
        let phase = w.run(Until::Deadline(Instant::now() + secs), false);
        let (checked, mismatched) = w.verify();
        report(
            &args.workload,
            "untraced",
            &phase,
            w.points_per_op(),
            checked,
            mismatched,
        );
        let ops_per_s = phase.ops_per_s();
        Outcome {
            attempted: phase.attempted,
            failed: phase.failed + mismatched,
            metrics: vec![
                ("setup_s", median(&setup_s), "s"),
                ("ops_per_s", ops_per_s, "1/s"),
                ("points_per_s", ops_per_s * w.points_per_op() as f64, "1/s"),
                ("latency_p50_ms", median(&phase.latencies_ms), "ms"),
                ("latency_p90_ms", quantile(&phase.latencies_ms, 0.9), "ms"),
            ],
        }
    };
    println!(
        "# frames_digest={:016x} seed={}",
        w.frames_digest(),
        args.seed
    );
    w.shutdown();
    Ok(outcome)
}

/// The human-readable summary of one phase, including `failed_frac`.
fn report(
    workload: &str,
    mode: &str,
    phase: &Phase,
    points_per_op: u64,
    checked: u64,
    mismatched: u64,
) {
    let ops = phase.latencies_ms.len();
    let failed = phase.failed + mismatched;
    println!(
        "# {workload} {mode}: samples={ops} ops_per_s={:.2} 1/s points_per_s={:.0} 1/s \
         latency_p50_ms={:.3} ms latency_p90_ms={:.3} ms failed_frac={} ({failed}/{}) \
         verified={checked} mismatched={mismatched}",
        phase.ops_per_s(),
        phase.ops_per_s() * points_per_op as f64,
        median(&phase.latencies_ms),
        quantile(&phase.latencies_ms, 0.9),
        failed as f64 / phase.attempted.max(1) as f64,
        phase.attempted,
    );
    for e in &phase.errors {
        eprintln!("servebench: {workload}: {e}");
    }
}
