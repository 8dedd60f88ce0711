//! Release-only overhead guard for the telemetry layer.
//!
//! Enabling telemetry on a 10k-revolution Map run must cost less than 10%
//! wall-clock: the median of `cil_bench::measure`'s alternating
//! enabled/disabled sample pairs stays below 1.10x. Meaningless in debug
//! builds (opt-level 0 swamps the comparison), so the test is ignored there
//! and run via `--include-ignored` in release, like every guard in this
//! directory. Writes `target/bench/BENCH_telemetry.json`.

use cil_bench::measure::{paired, timed, write_bench};
use cil_core::hil::{EngineKind, TurnLevelLoop};
use cil_core::{MdeScenario, TelemetryRegistry};

/// Bound on enabled over disabled wall-clock.
const BOUND: f64 = 1.10;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn telemetry_overhead_within_ten_percent_of_disabled() {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 10_000.0 / s.f_rev; // ~10k revolutions
    s.bunches = 1;
    // The harness's loop condition can land one row either side of
    // `revolutions()` at an exact boundary; calibrate from a real run.
    let rows = TurnLevelLoop::new(s.clone(), EngineKind::Map)
        .run(true)
        .unwrap()
        .phase_deg
        .len() as u64;
    assert!(
        (10_000..10_002).contains(&rows),
        "~10k revolutions, got {rows}"
    );

    let run = |telemetry: bool| {
        let loop_ = TurnLevelLoop::new(s.clone(), EngineKind::Map);
        let (loop_, registry) = if telemetry {
            let reg = TelemetryRegistry::new();
            (loop_.with_telemetry(&reg), Some(reg))
        } else {
            (loop_, None)
        };
        let (r, secs) = timed(|| loop_.run(true).unwrap());
        assert_eq!(r.phase_deg.len() as u64, rows);
        if let Some(reg) = registry {
            assert_eq!(
                reg.snapshot().counter("cil_loop_revolutions_total"),
                Some(rows)
            );
        }
        secs
    };
    // The ratio is enabled seconds over disabled seconds.
    let p = paired(|| run(false), || run(true));
    write_bench(
        "telemetry",
        vec![
            ("revolutions", rows.into()),
            ("disabled_vs_enabled", p.json()),
            ("bound", BOUND.into()),
        ],
    );
    assert!(
        p.ratio.median < BOUND,
        "telemetry overhead {}x (bound {BOUND}x)",
        p.ratio
    );
}
