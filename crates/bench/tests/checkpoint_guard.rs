//! Release-only overhead guard for checkpointing.
//!
//! Checkpointing at the default cadence costs ~1.08x wall-clock on a
//! realistic (multi-particle) workload, bounded at 1.25x to ride out
//! shared-runner I/O contention: the median of `cil_bench::measure`'s
//! alternating checkpointed/plain sample pairs stays below the bound.
//! Debug builds skew the encode/step cost ratio, so the test is ignored
//! there and run via `--include-ignored` in release, like every guard in
//! this directory. Writes `target/bench/BENCH_checkpoint.json`.

use cil_bench::measure::{paired, timed, write_bench};
use cil_core::checkpoint::CheckpointConfig;
use cil_core::harness::{LoopHarness, RunSpec};
use cil_core::hil::EngineKind;
use cil_core::MdeScenario;
use std::path::PathBuf;

/// Bound on checkpointed over plain wall-clock.
const BOUND: f64 = 1.25;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn checkpoint_overhead_bounded() {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.02;
    s.bunches = 1;
    let kind = EngineKind::RefTrack {
        particles: 2048,
        seed: 7,
    };
    let rows = s.revolutions();
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/checkpoint-guard"
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let run = |checkpoint: bool| {
        let mut harness = LoopHarness::for_scenario(&s, true);
        if checkpoint {
            // Default cadence + retention (CheckpointConfig::new).
            harness = harness.with_checkpointing(CheckpointConfig::new(dir.clone()));
        }
        let (trace, secs) = timed(|| {
            harness
                .run_spec(&s, RunSpec::fresh(&s, kind, s.duration_s).unwrap())
                .unwrap()
        });
        assert_eq!(trace.times.len(), rows);
        secs
    };
    // The ratio is checkpointed seconds over plain seconds.
    let p = paired(|| run(false), || run(true));
    write_bench(
        "checkpoint",
        vec![
            ("engine", "reftrack2048".into()),
            ("revolutions", rows.into()),
            ("cadence", CheckpointConfig::new(&dir).every_turns.into()),
            ("plain_vs_checkpointed", p.json()),
            ("bound", BOUND.into()),
        ],
    );
    assert!(
        p.ratio.median < BOUND,
        "checkpoint overhead {}x (bound {BOUND}x)",
        p.ratio
    );
}
