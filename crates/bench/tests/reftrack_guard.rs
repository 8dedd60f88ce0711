//! Release-only throughput regression guard for the RefTrack wide-lane
//! kernel.
//!
//! The acceptance bar for the kernel PR was "`reftrack_batched` at ≥ 3x the
//! recorded `BENCH_loop.json` baseline". An absolute revs/s bound is hostage
//! to whatever box CI lands on, so the guard pins the box-independent form,
//! two paired ratios measured in the same process on the same ensembles:
//!
//! * the `Auto` kernel (the widest polynomial backend the host has) must
//!   hold ≥ 3x the host-libm backend on the kernel-dominated large
//!   sequential case, and
//! * the full closed loop (`RefTrackEngine` through the batched harness,
//!   the exact `reftrack_batched` path) must hold ≥ 1.5x on `Auto` vs libm
//!   at the standing 256 macro-particle case, where harness bookkeeping
//!   dilutes the raw kernel ratio.
//!
//! Meaningless at opt-level 0, so the test is ignored in debug builds and
//! run via `--include-ignored` in release, like every guard in this
//! directory. Writes `target/bench/BENCH_reftrack.json`.

use cil_bench::reftrack_bench::{run_reftrack_bench, ENGINE_BOUND, KERNEL_BOUND};

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn poly_kernel_beats_libm_reference() {
    let bench = run_reftrack_bench(5_000, 3);
    bench.write();
    let (kernel, engine, rows) = (bench.kernel.ratio, bench.engine.ratio, &bench.rows);
    assert!(
        kernel.median >= KERNEL_BOUND,
        "Auto kernel only {kernel}x host libm (bound {KERNEL_BOUND}x): {rows:#?}"
    );
    assert!(
        engine.median >= ENGINE_BOUND,
        "closed-loop RefTrack engine on Auto only {engine}x libm \
         (bound {ENGINE_BOUND}x): {rows:#?}"
    );
}
