//! End-to-end integration: the complete Fig. 5 experiment through the
//! public API, at both fidelities, scored against the paper's claims.

use cavity_in_the_loop::hil::{EngineKind, SignalLevelLoop, TurnLevelLoop};
use cavity_in_the_loop::scenario::MdeScenario;
use cavity_in_the_loop::trace::score_jump_response;

fn scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.1; // one full jump cycle
    s.bunches = 1;
    s
}

#[test]
fn fig5_turn_level_cgra_full_story() {
    let s = scenario();
    let result = TurnLevelLoop::new(s.clone(), EngineKind::Cgra)
        .run(true)
        .unwrap();

    // One jump event in 0.1 s (at ~0.05 s).
    assert_eq!(result.jump_times.len(), 1);
    let t_jump = result.jump_times[0];
    assert!((t_jump - 0.05).abs() < 1e-3);

    let display = result.display_trace();
    let r = score_jump_response(&display, t_jump, t_jump + 0.045, s.jumps.amplitude_deg);

    // Paper claim 1: "the peak-to-peak phase amplitude of this oscillation
    // is twice the amplitude of the phase jump".
    assert!(
        (r.first_peak_ratio - 2.0).abs() < 0.4,
        "first-peak ratio {}",
        r.first_peak_ratio
    );
    // Paper claim 2: "The control loop is effective in damping the
    // longitudinal dipole oscillation."
    assert!(r.residual_ratio < 0.25, "residual {}", r.residual_ratio);
    // Paper claim 3: oscillation at the synchrotron frequency ~1.28 kHz.
    let w = result.phase_deg.window(t_jump + 1e-4, t_jump + 0.045);
    let (fs, _) = w.dominant_frequency(600.0, 3000.0);
    assert!((fs - 1.28e3).abs() < 100.0, "fs = {fs}");
}

#[test]
fn fig5_signal_level_oscillates_at_fs() {
    // Signal-level run over a shorter window (16 ms with early jumps):
    // verifies the full converter chain produces the same oscillation.
    let mut s = scenario();
    s.jumps.interval_s = 4e-3;
    s.instrument_offset_deg = 0.0;
    let result = SignalLevelLoop::new(s.clone()).run(0.016, false).unwrap();
    assert!(result.jump_times.len() >= 3);
    let w = result.phase_deg.window(result.jump_times[0] + 1e-4, 0.016);
    let (fs, amp) = w.dominant_frequency(600.0, 3000.0);
    assert!((fs - 1.28e3).abs() < 120.0, "fs = {fs}");
    assert!(amp > 3.0, "visible oscillation, amp = {amp} deg");
    // Paper claim 1 at signal level: the response to the first jump peaks
    // at 2× the jump (EXPERIMENTS.md F5: 2.27×), scored up to the next
    // edge with the 2× ± 20 % tolerance of the benchmark's output check.
    let t_jump = result.jump_times[0];
    let r = score_jump_response(
        &result.phase_deg,
        t_jump,
        result.jump_times[1] - 2e-4,
        s.jumps.amplitude_deg,
    );
    assert!(
        (r.first_peak_ratio - 2.0).abs() <= 0.4,
        "first-peak ratio {}",
        r.first_peak_ratio
    );
}

#[test]
fn open_vs_closed_loop_distinction() {
    let s = scenario();
    let open = TurnLevelLoop::new(s.clone(), EngineKind::Map)
        .run(false)
        .unwrap();
    let closed = TurnLevelLoop::new(s.clone(), EngineKind::Map)
        .run(true)
        .unwrap();
    let t_jump = open.jump_times[0];
    let score = |r: &cavity_in_the_loop::hil::HilResult| {
        score_jump_response(&r.display_trace(), t_jump, t_jump + 0.045, 8.0).residual_ratio
    };
    let r_open = score(&open);
    let r_closed = score(&closed);
    assert!(r_open > 0.7, "open loop rings: {r_open}");
    assert!(r_closed < 0.25, "closed loop damps: {r_closed}");
    assert!(r_closed < r_open / 3.0);
}

#[test]
fn controller_parameters_match_paper() {
    let s = MdeScenario::nov24_2023();
    assert_eq!(s.controller.f_pass, 1.4e3);
    assert_eq!(s.controller.gain, -5.0);
    assert_eq!(s.controller.recursion, 0.99);
    assert_eq!(s.jumps.amplitude_deg, 8.0);
    assert_eq!(s.jumps.interval_s, 0.05);
}

#[test]
fn traces_export_and_reimport() {
    let mut s = scenario();
    s.duration_s = 0.02;
    let result = TurnLevelLoop::new(s, EngineKind::Map).run(true).unwrap();
    let csv = result.phase_deg.to_csv();
    let back = cavity_in_the_loop::trace::TimeSeries::from_csv(&csv).unwrap();
    assert_eq!(back.len(), result.phase_deg.len());
    assert!((back.dt - result.phase_deg.dt).abs() / result.phase_deg.dt < 1e-6);
}
