//! One yardstick for every timing claim this crate makes.
//!
//! Every release guard and every `bench_*` bin measures the same way:
//!
//! * **Samples.** A sample repeats one workload run until the runs' timed
//!   regions add up to at least [`MIN_SAMPLE_S`], and reports seconds per
//!   run. A run times only its hot region ([`timed`]); setup and result
//!   checks stay outside.
//! * **Ratios.** A ratio is the median, with quartiles, of [`PAIRS`] A/B
//!   sample pairs. The side that runs first alternates from pair to pair,
//!   so drift and order effects land on both sides alike, and one slow
//!   window moves one pair, not the verdict.
//! * **Output.** One writer, [`write_bench`], stamps the host fingerprint
//!   (cores, CPU features, `rustc -V`, git rev) into
//!   `target/bench/BENCH_<name>.json`. `scripts/bench.sh` is the only step
//!   that copies those files into `results/`.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Least timed seconds in one sample.
pub const MIN_SAMPLE_S: f64 = 0.05;

/// A/B sample pairs behind every ratio (odd, so the median is one pair).
pub const PAIRS: usize = 21;

/// Run `f` as the timed region of one workload run; returns its result
/// and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// One sample: repeat `run` (which returns the seconds its timed region
/// took) until those add up to [`MIN_SAMPLE_S`]; returns seconds per run.
fn sample(run: &mut impl FnMut() -> f64) -> f64 {
    let (mut runs, mut secs) = (0.0, 0.0);
    while secs < MIN_SAMPLE_S {
        secs += run();
        runs += 1.0;
    }
    secs / runs
}

/// Median and quartiles of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Measurements summarised.
    pub n: usize,
}

impl Spread {
    /// Summarise `values` (linear interpolation between the two nearest
    /// ranks). Panics when empty.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let pos = p * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Self {
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            n: v.len(),
        }
    }

    /// Every statistic times `k`.
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            q1: self.q1 * k,
            median: self.median * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// As a JSON object.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("median", self.median.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
            ("n", self.n.into()),
        ])
    }
}

impl std::fmt::Display for Spread {
    /// `median [q1, q3]`, three decimals.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} [{:.3}, {:.3}]", self.median, self.q1, self.q3)
    }
}

/// `n` samples of a workload run that does `work` units, after one
/// untimed warm-up run; the spread is of work per second.
pub fn samples(n: usize, work: f64, mut run: impl FnMut() -> f64) -> Spread {
    let _ = run();
    let rates: Vec<f64> = (0..n.max(1)).map(|_| work / sample(&mut run)).collect();
    Spread::of(&rates)
}

/// An A/B comparison of two workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Side A, seconds per run.
    pub a: Spread,
    /// Side B, seconds per run.
    pub b: Spread,
    /// B's seconds over A's, per pair: how many times faster A runs.
    pub ratio: Spread,
}

impl Paired {
    /// As a JSON object.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("ratio", self.ratio.json()),
            ("a_s", self.a.json()),
            ("b_s", self.b.json()),
        ])
    }
}

/// [`PAIRS`] sample pairs of `a` against `b` (each returns the seconds its
/// timed region took), after one untimed warm-up run of each. Even pairs
/// run A first, odd pairs B first.
pub fn paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    let _ = (a(), b());
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for i in 0..PAIRS {
        if i % 2 == 0 {
            sa.push(sample(&mut a));
            sb.push(sample(&mut b));
        } else {
            sb.push(sample(&mut b));
            sa.push(sample(&mut a));
        }
    }
    let ratios: Vec<f64> = sa.iter().zip(&sb).map(|(ta, tb)| tb / ta).collect();
    Paired {
        a: Spread::of(&sa),
        b: Spread::of(&sb),
        ratio: Spread::of(&ratios),
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// True when `workers` threads outnumber the host's cores: such a row
/// measures the OS scheduler as much as the code, and backs no scaling
/// claim.
pub fn oversubscribed(workers: usize) -> bool {
    workers > cores()
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

/// The host and build a measurement came from.
fn host() -> Json {
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"]);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj(vec![
        ("cores", cores().into()),
        ("avx2", avx2.into()),
        ("avx512f", avx512f.into()),
        ("rustc", command_line("rustc", &["-V"]).as_str().into()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).as_str().into(),
        ),
        ("git_dirty", (!dirty.is_empty()).into()),
        ("profile", profile.into()),
    ])
}

/// Write `target/bench/BENCH_<name>.json` (at the repo root, whatever the
/// working directory): the bench name, the host fingerprint and the
/// estimator's settings, then `fields`. Returns the path written.
pub fn write_bench(name: &str, fields: Vec<(&str, Json)>) -> PathBuf {
    let mut all = vec![
        ("bench", name.into()),
        ("host", host()),
        ("min_sample_s", MIN_SAMPLE_S.into()),
        ("pairs", PAIRS.into()),
    ];
    all.extend(fields);
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join(format!("BENCH_{name}.json"));
    let text = format!("{}\n", Json::obj(all).render());
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// A rendered JSON value, just enough for the BENCH files. Numbers that
/// are not finite render as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(String);

impl Json {
    /// `null`.
    pub(crate) fn null() -> Self {
        Json("null".into())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}:{}", Json::from(k).0, v.0))
            .collect();
        Json(format!("{{{}}}", body.join(",")))
    }

    /// The JSON text.
    pub fn render(&self) -> &str {
        &self.0
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        let body: Vec<String> = items.into_iter().map(|v| v.0).collect();
        Json(format!("[{}]", body.join(",")))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json(if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        })
    }
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json(v.to_string())
            }
        }
    )*};
}
json_display!(u64, usize, bool);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json(format!("\"{}\"", cil_core::telemetry::json_escape(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_interpolates_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = Spread::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn sample_repeats_until_the_minimum() {
        let mut calls = 0;
        let secs = sample(&mut || {
            calls += 1;
            0.02
        });
        assert_eq!(calls, 3, "0.06 s is the first total >= {MIN_SAMPLE_S}");
        assert!((secs - 0.02).abs() < 1e-12);
        let rate = samples(4, 10.0, || 0.02);
        assert!((rate.median - 500.0).abs() < 1e-9);
    }

    #[test]
    fn paired_alternates_the_first_side_and_ratios_times() {
        let order = std::cell::RefCell::new(String::new());
        let p = paired(
            || {
                order.borrow_mut().push('a');
                0.1
            },
            || {
                order.borrow_mut().push('b');
                0.2
            },
        );
        assert_eq!(p.ratio.n, PAIRS);
        assert!((p.ratio.median - 2.0).abs() < 1e-12, "A runs 2x faster");
        assert!((p.a.median - 0.1).abs() < 1e-12);
        let order = order.into_inner();
        assert!(
            order.starts_with("ababba"),
            "warm-up, then alternate: {order}"
        );
    }

    #[test]
    fn json_renders_compact_and_valid() {
        let j = Json::obj(vec![
            ("s", "a\"b\\c\n".into()),
            ("n", 1.5.into()),
            ("i", 10_001u64.into()),
            ("bad", f64::NAN.into()),
            ("arr", vec![true.into(), 3usize.into()].into()),
        ]);
        assert_eq!(
            j.render(),
            r#"{"s":"a\"b\\c\u000a","n":1.5,"i":10001,"bad":null,"arr":[true,3]}"#
        );
    }
}
