//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public API of `cil-core`, `cil-cgra` and
//! `cil-reftrack` from outside and touches only its own layers, so a change
//! to one layer is predicted to move one workload and leave the others:
//!
//! | workload       | layers doing the work |
//! |----------------|-----------------------|
//! | `mde_loop`     | CGRA plan executor + harness, event core, controller, telemetry (batched and one-revolution-per-block passes) |
//! | `mde_signal`   | the 250 MS/s signal chain (`cil-dsp`) behind `SignalLevelEngine` |
//! | `mde_reftrack` | the 32 768-particle RefTrack kernel with intra-step threading |
//! | `fleet`        | `SessionMux` slicing, work stealing, arena leases, checkpoint codec |
//! | `campaign`     | campaign scheduler, WAL commit, arena reuse, Map engine, scoring |
//!
//! With `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric
//! (layers a workload does not touch read 0 — the isolation check). Every
//! run also checks the program's outputs and writes an artifact with the
//! host fingerprint and noise diagnostics to `.perfbench_out/`.

mod campaign;
mod check;
mod fleet;
mod host;
mod mde;
mod probe;
mod seed;
mod stats;
mod tracing;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tracing::Tracer;

/// Directory (relative to the working directory) for artifacts, span
/// traces and the campaign's temporary WAL directories.
pub const OUT_DIR: &str = ".perfbench_out";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "mde_loop",
    "mde_signal",
    "mde_reftrack",
    "fleet",
    "campaign",
];

/// End-to-end metrics (every workload reports each, measured with tracing
/// off): name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("revs_per_s", "rev/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (every workload reports each in a traced run; a layer
/// the workload never touches reads 0): name, unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("cgra.step_ns_per_rev", "ns"),
    ("cgra.harness_ns_per_rev", "ns"),
    ("cgra.rows_per_block", "rows"),
    ("cgra.schedule_ticks", "tick"),
    ("cgra.kernel_compiles", "count"),
    ("cgra.kernel_configs", "count"),
    ("realtime.step_ns_per_rev", "ns"),
    ("realtime.harness_ns_per_rev", "ns"),
    ("signal.step_ns_per_rev", "ns"),
    ("signal.harness_ns_per_rev", "ns"),
    ("signal.chains_built", "count"),
    ("reftrack.step_ns_per_particle_turn", "ns"),
    ("reftrack.harness_ns_per_rev", "ns"),
    ("reftrack.threads", "count"),
    ("reftrack.default_threads", "count"),
    ("reftrack.default_speedup", "ratio"),
    ("mux.built", "count"),
    ("mux.threads_seen", "count"),
    ("mux.create_us", "us"),
    ("mux.join_wait_ms", "ms"),
    ("mux.dispatches_per_session", "count"),
    ("mux.steal_frac", "ratio"),
    ("arena.hit_rate", "ratio"),
    ("checkpoint.evictions", "count"),
    ("checkpoint.restores", "count"),
    ("checkpoint.evict_us", "us"),
    ("checkpoint.snapshot_kb", "KiB"),
    ("campaign.built", "count"),
    ("campaign.point_ms", "ms"),
    ("campaign.loop_ms", "ms"),
    ("campaign.lease_us", "us"),
    ("campaign.score_us", "us"),
    ("campaign.overhead_frac", "ratio"),
    ("campaign.wal_bytes", "B"),
    ("campaign.quarantined", "count"),
    ("campaign.retries", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_kept", "count"),
];

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed — the only input source.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where artifacts and temporary files go.
    pub out_dir: PathBuf,
}

/// An exact latency summary, microseconds.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// What one sample is, sample counts and the deepest resolved
    /// percentile (human-readable).
    pub detail: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (loops, sessions or points).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed (empty = outputs correct).
    pub problems: Vec<String>,
    /// Closed-loop revolutions per second of host time.
    pub revs_per_s: f64,
    /// Latency of the workload's unit of work.
    pub latency: Latency,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Per-layer metrics this workload measured (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable result lines.
    pub notes: Vec<String>,
}

impl Latency {
    /// Latency from chunked raw samples (`scale` converts them to
    /// microseconds); too few samples is an output-check failure.
    pub fn from_chunks(
        chunks: stats::Chunked,
        scale: f64,
        what: &str,
        report: &mut Report,
    ) -> Self {
        match chunks.finish(scale, "us") {
            Some((p50_us, p99_us, detail)) => Self {
                p50_us,
                p99_us,
                detail: format!("{what}: {detail}"),
            },
            None => {
                report.problem(format!("{what}: fewer than 100 samples"));
                Self::default()
            }
        }
    }
}

impl Report {
    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Record an output-check failure.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Set-up repetitions per run; the median is reported.
pub const SETUP_REPEATS: usize = 31;

/// Median wall time of [`SETUP_REPEATS`] runs of `setup` (set-up takes
/// milliseconds, so one timing is noise); returns it with the last run's
/// output.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repetition first, so no two set-ups (two muxes'
        // worker pools, say) are ever alive together.
        drop(last.take());
        let t0 = Instant::now();
        let out = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    let median = stats::median(&times).unwrap_or(0.0);
    Ok((median, last.ok_or("setup ran zero times")?))
}

/// Run `round` until the `--seconds` budget is spent, at least twice so a
/// traced run has both untraced and traced rounds. `round` gets whether it
/// is traced (the odd rounds of a traced run) and its index.
pub fn rounds(
    cfg: &Config,
    mut round: impl FnMut(bool, u64) -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut i = 0;
    while i < 2 || Instant::now() < deadline {
        round(cfg.trace && i % 2 == 1, i)?;
        i += 1;
    }
    Ok(())
}

/// Write the kept spans next to the artifact and note how many were kept.
pub fn write_spans(cfg: &Config, on: &Tracer, report: &mut Report, stem: &str) {
    let kept = on.spans_closed().min(crate::tracing::SPAN_CAPACITY as u64);
    report.layer("trace.spans_kept", kept as f64);
    let path = cfg
        .out_dir
        .join(format!("{stem}-seed{}-spans.jsonl", cfg.seed));
    match on.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "spans: {kept} kept of {} in {}",
            on.spans_closed(),
            path.display()
        )),
        Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                cfg.seconds = f64::from(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let fingerprint = host::Fingerprint::probe();
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("{}", fingerprint.line());

    let noise_before = host::NoiseSample::now();
    // Traced runs watch for mux worker threads from outside the workload.
    let mux_watch = cfg.trace.then(|| host::ThreadWatch::start("cil-mux"));
    let result = match workload.as_str() {
        "mde_loop" => mde::run_cgra(&cfg),
        "mde_signal" => mde::run_signal(&cfg),
        "mde_reftrack" => mde::run_reftrack(&cfg),
        "fleet" => fleet::run(&cfg),
        "campaign" => campaign::run(&cfg),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let noise = noise_before.delta_line(&host::NoiseSample::now());
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(watch) = mux_watch {
        report.layer("mux.threads_seen", watch.finish() as f64);
    }
    report.layer(
        "cgra.kernel_configs",
        cil_cgra::cache::global().len() as f64,
    );
    let peak_rss_mb = host::peak_rss_mb();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "revs_per_s" => report.revs_per_s,
                "latency_p50_us" => report.latency.p50_us,
                "latency_p99_us" => report.latency.p99_us,
                "setup_s" => report.setup_s,
                "peak_rss_mb" => peak_rss_mb,
                _ => unreachable!("END_TO_END is matched exhaustively"),
            };
            if !(v.is_finite() && v > 0.0) {
                report.problem(format!(
                    "end-to-end metric {name} = {v} is not a positive number"
                ));
            }
            metrics.push((name, v, unit));
        }
    }

    for n in &report.notes {
        println!("{n}");
    }
    println!("latency: {}", report.latency.detail);
    println!("{noise}");
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });

    let mut body = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*v)
        );
    }
    let result_line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        report.attempted.max(1),
        report.failed
    );

    let mut artifact = String::new();
    let _ = writeln!(
        artifact,
        "workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let _ = writeln!(artifact, "{}", fingerprint.line());
    let _ = writeln!(artifact, "{noise}");
    for n in &report.notes {
        let _ = writeln!(artifact, "{n}");
    }
    for p in &report.problems {
        let _ = writeln!(artifact, "CHECK FAILED: {p}");
    }
    let _ = writeln!(artifact, "{result_line}");
    let artifact_path = cfg.out_dir.join(format!(
        "{workload}-seed{}-trace{}.txt",
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(&artifact_path, artifact) {
        eprintln!("perfbench: cannot write {}: {e}", artifact_path.display());
    }

    println!("{result_line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let (w, c) = parse_args(&args("--workload fleet --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "fleet");
        assert_eq!((c.seed, c.seconds, c.trace), (9, 3.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload fleet --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
