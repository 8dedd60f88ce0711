//! Crash recovery demo: run the closed loop with periodic checkpointing,
//! "crash" it partway through, resume from disk, and show the recovered run
//! is bit-identical to one that was never interrupted.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use cil_core::checkpoint::{snapshot_turns, CheckpointConfig};
use cil_core::fault::{FaultEvent, FaultKind, FaultProgram};
use cil_core::harness::{LoopHarness, LoopTrace, RunSpec};
use cil_core::hil::EngineKind;
use cil_core::{LoopSupervisor, MdeScenario};

fn main() {
    // The Nov 24 2023 machine experiment, shortened, with forced deadline
    // overruns from 20 ms so the supervised run demotes CGRA → map
    // mid-flight. The kill lands *after* the demotion: the checkpoint must
    // capture not just the beam state but which fidelity is running.
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.05;
    s.bunches = 1;
    s.faults = FaultProgram {
        seed: 0,
        events: vec![FaultEvent {
            start_s: 0.02,
            end_s: 0.05,
            kind: FaultKind::DeadlineOverrun { factor: 3.0 },
        }],
    };

    let dir = std::env::temp_dir().join("cil-crash-recovery-demo");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CheckpointConfig::new(dir.clone()); // every 256 turns, keep 2

    // ---- reference: the run nothing ever happens to -----------------------
    let mut harness = LoopHarness::for_scenario(&s, true);
    let mut sup = LoopSupervisor::for_scenario(&s);
    let reference = harness
        .run_supervised(&s, EngineKind::Cgra, s.duration_s, &mut sup)
        .unwrap();
    println!("reference run : {}", describe(&reference));

    // ---- the doomed run ---------------------------------------------------
    // Stopping at 35 ms stands in for a SIGKILL at that instant: checkpoint
    // writes are atomic (tmp + rename) and happen only at cadence
    // boundaries, so the directory is exactly what a real crash leaves.
    let crash_at = 0.035;
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg.clone());
    let mut sup = LoopSupervisor::for_scenario(&s);
    let partial = harness
        .run_supervised(&s, EngineKind::Cgra, crash_at, &mut sup)
        .unwrap();
    println!(
        "crashed run   : {} (killed at {:.0} ms)",
        describe(&partial),
        crash_at * 1e3
    );
    let turns = snapshot_turns(&dir).unwrap();
    println!(
        "on disk       : snapshots at turns {:?} + write-ahead trace log",
        turns
    );

    // ---- recovery ---------------------------------------------------------
    // A fresh harness and supervisor — a new process, as far as state is
    // concerned — picks up from the newest good snapshot and replays
    // nothing: the trace log already holds every row up to the cut.
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg);
    let mut sup = LoopSupervisor::for_scenario(&s);
    let resumed = harness
        .run_spec(&s, RunSpec::resume(s.duration_s).supervised(&mut sup))
        .unwrap();
    println!("resumed run   : {}", describe(&resumed));

    // ---- the point --------------------------------------------------------
    let identical = reference.times == resumed.times
        && reference.bunch_phase_deg == resumed.bunch_phase_deg
        && reference.mean_phase_deg == resumed.mean_phase_deg
        && reference.control_hz == resumed.control_hz
        && reference.jump_times == resumed.jump_times
        && reference.events == resumed.events;
    println!();
    if identical {
        println!("resumed == uninterrupted, bit for bit: every row, every audit");
        println!("event, every f64 — the crash is invisible in the physics.");
    } else {
        println!("MISMATCH between resumed and reference runs!");
        std::process::exit(1);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

fn describe(t: &LoopTrace) -> String {
    format!(
        "{} rows, {} audit events, final mean phase {:+.4}°",
        t.times.len(),
        t.events.len(),
        t.mean_phase_deg.last().copied().unwrap_or(f64::NAN)
    )
}
