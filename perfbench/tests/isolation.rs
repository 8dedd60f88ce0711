//! Workload isolation, checked through the traced run's zero counts: each
//! workload builds only its own layers, and every traced run reports every
//! per-layer metric with correct outputs.

use std::collections::BTreeMap;
use std::process::Command;

/// Run one traced workload for one second; returns its metrics.
fn traced_metrics(workload: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,"),
        "{workload}:\n{stdout}"
    );
    // The result line is flat enough to read without a JSON parser:
    // "name":{"value":v,"unit":"u"} pairs.
    let mut metrics = BTreeMap::new();
    for part in last.split("},\"") {
        let Some((name, rest)) = part.rsplit_once("\":{\"value\":") else {
            continue;
        };
        let name = name.rsplit('"').next().unwrap_or(name).to_string();
        let value: f64 = rest
            .split(',')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{workload}: unreadable value for {name}"));
        metrics.insert(name, value);
    }
    metrics
}

#[test]
fn each_workload_builds_only_its_own_layers() {
    let zero = |m: &BTreeMap<String, f64>, w: &str, names: &[&str]| {
        for n in names {
            assert_eq!(m.get(*n), Some(&0.0), "{w}: {n} must be 0");
        }
    };
    let positive = |m: &BTreeMap<String, f64>, w: &str, names: &[&str]| {
        for n in names {
            assert!(
                m.get(*n).is_some_and(|v| *v > 0.0),
                "{w}: {n} must be > 0: {m:?}"
            );
        }
    };
    // `*.built` are the benchmark's own construction counts; the mux
    // worker threads seen and the kernel-cache counts are witnesses taken
    // from outside the workload code.
    let no_mux = ["mux.built", "mux.threads_seen"];

    let m = traced_metrics("mde_loop");
    assert_eq!(m.len(), 40, "every per-layer metric is reported");
    zero(&m, "mde_loop", &no_mux);
    zero(&m, "mde_loop", &["campaign.built", "signal.chains_built"]);
    positive(
        &m,
        "mde_loop",
        &[
            "cgra.step_ns_per_rev",
            "cgra.harness_ns_per_rev",
            "realtime.step_ns_per_rev",
        ],
    );
    assert_eq!(m["cgra.schedule_ticks"], 100.0);
    // One kernel configuration: the loop's, no signal chain's.
    assert_eq!(m["cgra.kernel_configs"], 1.0);

    let m = traced_metrics("mde_signal");
    zero(&m, "mde_signal", &no_mux);
    zero(&m, "mde_signal", &["campaign.built"]);
    positive(
        &m,
        "mde_signal",
        &["signal.step_ns_per_rev", "signal.chains_built"],
    );

    let m = traced_metrics("mde_reftrack");
    zero(&m, "mde_reftrack", &no_mux);
    zero(
        &m,
        "mde_reftrack",
        &[
            "campaign.built",
            "signal.chains_built",
            "cgra.kernel_compiles",
            "cgra.kernel_configs",
        ],
    );
    positive(
        &m,
        "mde_reftrack",
        &[
            "reftrack.step_ns_per_particle_turn",
            "reftrack.threads",
            "reftrack.default_threads",
            "reftrack.default_speedup",
        ],
    );

    let m = traced_metrics("fleet");
    zero(&m, "fleet", &["signal.chains_built", "campaign.built"]);
    positive(
        &m,
        "fleet",
        &[
            "mux.built",
            "mux.threads_seen",
            "mux.create_us",
            "checkpoint.evictions",
        ],
    );
    assert_eq!(m["checkpoint.evictions"], m["checkpoint.restores"]);
    // Mux workers never outnumber the cores, set-up included.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(m["mux.threads_seen"] <= nproc as f64, "{m:?}");
    // One kernel configuration: the CGRA sessions', no signal chain's.
    assert_eq!(m["cgra.kernel_configs"], 1.0);

    let m = traced_metrics("campaign");
    zero(&m, "campaign", &no_mux);
    zero(
        &m,
        "campaign",
        &[
            "cgra.kernel_compiles",
            "cgra.kernel_configs",
            "signal.chains_built",
        ],
    );
    positive(
        &m,
        "campaign",
        &["campaign.built", "campaign.loop_ms", "campaign.quarantined"],
    );
    assert_eq!(m["campaign.quarantined"], m["campaign.retries"]);
}
