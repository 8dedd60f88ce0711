//! Campaign-runner acceptance tests — the chaos proof of ISSUE 7.
//!
//! The headline claim: a campaign SIGKILLed at an arbitrary moment resumes
//! from `campaign.log` and produces an aggregate results CSV byte-identical
//! to an uninterrupted run's, with panicking/erroring points quarantined in
//! `poisoned.csv` rather than failing the campaign. The kill is simulated
//! by truncating the WAL at a proptest-chosen byte offset: shard commits
//! are single appends and the output CSVs are tmp+rename, so an on-disk
//! state reachable by SIGKILL is exactly a WAL prefix (possibly ending in
//! a torn frame) — which the truncation sweep covers for *every* byte
//! position, not just frame boundaries.

use cil_core::campaign::{
    Campaign, CampaignConfig, CampaignError, CampaignWorker, CAMPAIGN_LOG_NAME,
};
use cil_core::error::{CilError, Result as CilResult};
use cil_core::hil::{EngineKind, TurnLevelLoop};
use cil_core::sweep::{parallel_sweep, SweepPanic};
use cil_core::MdeScenario;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Fresh per-test campaign directory under the target tree.
fn campaign_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/campaign-tests"
    ))
    .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A short real-physics point list: gain sweep over tiny closed loops,
/// seasoned with one point that always errors (gain index 7) and one that
/// always panics (gain index 13) so every run exercises quarantine.
fn scenario_points(n: usize) -> Vec<MdeScenario> {
    (0..n)
        .map(|i| {
            let mut s = MdeScenario::nov24_2023();
            s.duration_s = 0.002;
            s.bunches = 1;
            s.jumps.interval_s = 0.0008;
            s.controller.gain = -0.5 - 0.25 * i as f64;
            s
        })
        .collect()
}

fn evaluate(worker: &mut CampaignWorker, s: &MdeScenario) -> CilResult<Vec<f64>> {
    // Poison points keyed on the gain so they are a property of the input,
    // not of execution order.
    let idx = ((-s.controller.gain - 0.5) / 0.25).round() as i64;
    if idx == 7 {
        return Err(CilError::InvalidConfig("poison point: typed error".into()));
    }
    if idx == 13 {
        panic!("poison point: controller drove the engine unstable");
    }
    let engine = worker.arena.engine(s, EngineKind::Map)?;
    let r = TurnLevelLoop::new(s.clone(), EngineKind::Map).run_on(engine, true)?;
    let tail = &r.phase_deg.values[r.phase_deg.values.len() / 2..];
    Ok(vec![
        tail.iter().map(|v| v.abs()).sum::<f64>() / tail.len() as f64,
        r.control_hz
            .values
            .iter()
            .map(|v| v.abs())
            .fold(0.0, f64::max),
    ])
}

fn config(dir: PathBuf, workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(dir, &["tail_residual_deg", "max_actuation_hz"]);
    cfg.shard_points = 4;
    cfg.workers = workers;
    cfg.max_retries = 1;
    cfg
}

/// Run the standard scenario campaign in `dir`; returns (aggregate bytes,
/// poisoned bytes, shards resumed).
fn run_campaign(points: &[MdeScenario], dir: PathBuf, workers: usize) -> (Vec<u8>, Vec<u8>, usize) {
    let report = Campaign::new(points, config(dir, workers))
        .expect("valid config")
        .run(evaluate)
        .expect("campaign runs");
    assert_eq!(report.completed + report.quarantined, points.len());
    assert_eq!(report.quarantined, 2, "both poison points quarantined");
    (
        std::fs::read(&report.aggregate_csv).expect("aggregate.csv"),
        std::fs::read(&report.poisoned_csv).expect("poisoned.csv"),
        report.shards_resumed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill the campaign at a proptest-chosen WAL byte offset — anywhere
    /// from "barely started" to "almost done", including mid-frame — then
    /// resume and require the aggregate and poisoned CSVs byte-identical
    /// to an uninterrupted campaign's.
    #[test]
    fn killed_campaign_resumes_to_identical_csv(kill_frac in 0.05f64..0.98) {
        let points = scenario_points(24);
        let (ref_agg, ref_poi, _) =
            run_campaign(&points, campaign_dir("kill-reference"), 2);

        let dir = campaign_dir(&format!("kill-{:03}", (kill_frac * 1000.0) as u32));
        let _ = run_campaign(&points, dir.clone(), 2);
        let log = dir.join(CAMPAIGN_LOG_NAME);
        let bytes = std::fs::read(&log).expect("read WAL");
        let cut = ((bytes.len() as f64) * kill_frac) as usize;
        std::fs::write(&log, &bytes[..cut]).expect("truncate WAL");

        let (agg, poi, _) = run_campaign(&points, dir, 2);
        prop_assert_eq!(&agg, &ref_agg, "aggregate CSV differs after resume");
        prop_assert_eq!(&poi, &ref_poi, "poisoned CSV differs after resume");
    }
}

/// Same poison points, different worker counts: the quarantined set (and
/// every completed value) must be identical — shard outcomes are a
/// function of the points alone, never of scheduling.
#[test]
fn quarantine_is_deterministic_across_worker_counts() {
    let points = scenario_points(24);
    let (agg1, poi1, _) = run_campaign(&points, campaign_dir("det-w1"), 1);
    let (agg3, poi3, _) = run_campaign(&points, campaign_dir("det-w3"), 3);
    assert_eq!(agg1, agg3, "aggregate CSV depends on worker count");
    assert_eq!(poi1, poi3, "poisoned CSV depends on worker count");
    assert!(
        String::from_utf8_lossy(&poi1).contains("poison point: typed error"),
        "typed error message recorded"
    );
    assert!(
        String::from_utf8_lossy(&poi1).contains("controller drove the engine unstable"),
        "panic message recorded"
    );
}

/// A transiently failing point succeeds on its second attempt and the
/// retry leaves no trace in the aggregate beyond the attempts column.
#[test]
fn retry_then_succeed_is_deterministic() {
    let points: Vec<u64> = (0..20).collect();
    let run = |dir: PathBuf, workers: usize| {
        let mut cfg = CampaignConfig::new(dir, &["value"]);
        cfg.shard_points = 4;
        cfg.workers = workers;
        cfg.max_retries = 2;
        let report = Campaign::new(&points, cfg)
            .expect("valid config")
            .run(|w: &mut CampaignWorker, &p: &u64| {
                if p % 5 == 3 && w.attempt() < 2 {
                    Err(CilError::InvalidConfig("transient".into()))
                } else {
                    Ok(vec![p as f64 * 1.5])
                }
            })
            .expect("campaign runs");
        assert_eq!(report.completed, 20);
        for o in &report.outcomes {
            let expected = if o.index % 5 == 3 { 2 } else { 1 };
            assert_eq!(o.attempts, expected, "point {}", o.index);
        }
        std::fs::read(&report.aggregate_csv).expect("aggregate.csv")
    };
    let a = run(campaign_dir("retry-w1"), 1);
    let b = run(campaign_dir("retry-w4"), 4);
    assert_eq!(a, b);
}

/// Garbage appended to a complete WAL — torn frame header, torn payload,
/// wrong magic — is discarded on resume; all shards are recovered and no
/// point re-executes.
#[test]
fn torn_wal_tail_is_discarded_on_resume() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let points: Vec<u64> = (0..32).collect();
    let make_cfg = |dir: PathBuf| {
        let mut cfg = CampaignConfig::new(dir, &["value"]);
        cfg.shard_points = 8;
        cfg.workers = 2;
        cfg
    };
    let dir = campaign_dir("torn-tail");
    Campaign::new(&points, make_cfg(dir.clone()))
        .expect("valid config")
        .run(|_w, &p| Ok(vec![p as f64]))
        .expect("campaign runs");

    let log = dir.join(CAMPAIGN_LOG_NAME);
    let clean = std::fs::read(&log).expect("read WAL");
    for (tag, tail) in [
        ("torn header", vec![0x43u8, 0x41, 0x4D]),
        ("torn frame", {
            // Valid magic + huge length, then nothing.
            let mut t = 0x534D_4143u32.to_le_bytes().to_vec();
            t.extend_from_slice(&u64::MAX.to_le_bytes());
            t
        }),
        (
            "foreign magic",
            b"TRCB\x10\x00\x00\x00\x00\x00\x00\x00garbage!".to_vec(),
        ),
    ] {
        let mut bytes = clean.clone();
        bytes.extend_from_slice(&tail);
        std::fs::write(&log, &bytes).expect("write damaged WAL");

        let executions = AtomicUsize::new(0);
        let report = Campaign::new(&points, make_cfg(dir.clone()))
            .expect("valid config")
            .run(|_w, &p| {
                executions.fetch_add(1, Ordering::Relaxed);
                Ok(vec![p as f64])
            })
            .expect("campaign resumes");
        assert_eq!(report.shards_resumed, 4, "{tag}: all shards recovered");
        assert_eq!(
            executions.load(Ordering::Relaxed),
            0,
            "{tag}: no point re-executed"
        );
    }
}

/// A WAL whose valid header names a different campaign must be rejected —
/// silently clobbering another campaign's log is data loss.
#[test]
fn foreign_wal_header_is_rejected() {
    let points: Vec<u64> = (0..8).collect();
    let dir = campaign_dir("foreign-header");
    let cfg = |columns: &[&str]| {
        let mut c = CampaignConfig::new(dir.clone(), columns);
        c.shard_points = 4;
        c.workers = 1;
        c
    };
    Campaign::new(&points, cfg(&["value"]))
        .expect("valid config")
        .run(|_w, &p| Ok(vec![p as f64]))
        .expect("campaign runs");
    let err = Campaign::new(&points, cfg(&["other_column"]))
        .expect("valid config")
        .run(|_w, &p| Ok(vec![p as f64]))
        .expect_err("column rename must be rejected");
    assert!(
        matches!(err, CampaignError::Incompatible(_)),
        "unexpected error: {err:?}"
    );
}

/// fsync opt-in: same outcomes, same CSV bytes — durability is a
/// persistence knob, never a results knob.
#[test]
fn fsync_campaign_matches_default() {
    let points: Vec<u64> = (0..16).collect();
    let run = |dir: PathBuf, fsync: bool| {
        let mut cfg = CampaignConfig::new(dir, &["value"]);
        cfg.shard_points = 4;
        cfg.workers = 2;
        cfg.fsync = fsync;
        let report = Campaign::new(&points, cfg)
            .expect("valid config")
            .run(|_w, &p| Ok(vec![(p as f64).sqrt()]))
            .expect("campaign runs");
        std::fs::read(&report.aggregate_csv).expect("aggregate.csv")
    };
    assert_eq!(
        run(campaign_dir("fsync-on"), true),
        run(campaign_dir("fsync-off"), false)
    );
}

/// A panic escaping a raw `parallel_sweep` carries the failing point's
/// index, so the campaign layer (and any other caller) can map it back to
/// the input and its scenario digest.
#[test]
fn sweep_panic_names_the_failing_scenario() {
    let points = scenario_points(6);
    let bad_digest = points[3].digest();
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_sweep(
            &points,
            2,
            || (),
            |_, s: &MdeScenario| {
                if s.digest() == bad_digest {
                    panic!("engine diverged");
                }
                s.controller.gain
            },
            |_| {},
        )
    }));
    let payload = result.expect_err("sweep must re-raise");
    let sp = payload
        .downcast::<SweepPanic>()
        .expect("payload is a SweepPanic");
    assert_eq!(sp.index, 3);
    assert_eq!(points[sp.index].digest(), bad_digest);
    assert!(sp.message().contains("engine diverged"));
}

/// The checkpoint config's fsync flag round-trips through a real
/// checkpointed run (satellite smoke: the flag is plumbed, not just
/// stored).
#[test]
fn checkpointed_run_with_fsync_completes() {
    use cil_core::checkpoint::CheckpointConfig;
    use cil_core::harness::LoopHarness;
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.004;
    s.bunches = 1;
    let dir = campaign_dir("ckpt-fsync");
    let mut cfg = CheckpointConfig::new(dir);
    cfg.every_turns = 512;
    cfg.fsync = true;
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg);
    let trace = harness
        .run_checkpointed(&s, EngineKind::Map, s.duration_s)
        .expect("checkpointed run with fsync");
    assert!(!trace.times.is_empty());
}
