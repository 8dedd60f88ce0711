//! Host fingerprint and machine-noise diagnostics.
//!
//! A number counts only if its artifact names the host that produced it, so
//! every result records core count, CPU features, compiler, source revision
//! and build profile, plus how much CPU the machine lost to other tenants
//! while the run measured (`/proc/stat` steal time and `/proc/pressure/cpu`).

use std::path::Path;
use std::process::Command;

/// The host and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub nproc: usize,
    /// AVX2 detected at run time.
    pub avx2: bool,
    /// AVX-512F detected at run time.
    pub avx512f: bool,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of the measured sources (identifies the code when
    /// there is no git metadata).
    pub source_digest: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

/// FNV-1a over every `.rs` and `Cargo.toml` file at or below `dirs`
/// (sorted paths, so the digest is stable).
fn source_digest(dirs: &[&Path]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        if dir.is_file() {
            files.push(dir.to_path_buf());
        } else {
            walk(dir, &mut files);
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

impl Fingerprint {
    /// Probe the host. Runs `rustc -V` and `git rev-parse HEAD` (waiting
    /// for both) and hashes the sources under the working directory.
    pub fn probe() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        Self {
            nproc: nproc(),
            avx2,
            avx512f,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            source_digest: source_digest(&[
                Path::new("crates"),
                Path::new("perfbench/src"),
                Path::new("Cargo.toml"),
            ]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} avx2={} avx512f={} rustc=\"{}\" git_rev={} source_digest={} profile={}",
            self.nproc,
            self.avx2,
            self.avx512f,
            self.rustc,
            self.git_rev,
            self.source_digest,
            self.profile
        )
    }
}

/// CPU-time counters of the whole machine at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseSample {
    /// Aggregate `cpu` line of `/proc/stat`: total and steal ticks.
    total_ticks: u64,
    steal_ticks: u64,
    /// `some total=` of `/proc/pressure/cpu`, microseconds (0 if absent).
    pressure_us: u64,
    at: Option<std::time::Instant>,
}

impl NoiseSample {
    /// Read the counters now (missing files read as zero).
    pub fn now() -> Self {
        let mut s = Self {
            at: Some(std::time::Instant::now()),
            ..Self::default()
        };
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let v: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                s.total_ticks = v.iter().sum();
                s.steal_ticks = v.get(7).copied().unwrap_or(0);
            }
        }
        if let Ok(p) = std::fs::read_to_string("/proc/pressure/cpu") {
            s.pressure_us = p
                .lines()
                .find(|l| l.starts_with("some"))
                .and_then(|l| l.split_whitespace().find_map(|f| f.strip_prefix("total=")))
                .and_then(|t| t.parse().ok())
                .unwrap_or(0);
        }
        s
    }

    /// What happened between `self` and `later`, as one line: the share of
    /// machine CPU time stolen by the hypervisor and the share of wall
    /// time in which some task waited for a CPU.
    pub fn delta_line(&self, later: &NoiseSample) -> String {
        let total = later.total_ticks.saturating_sub(self.total_ticks);
        let steal = later.steal_ticks.saturating_sub(self.steal_ticks);
        let wall_us = match (self.at, later.at) {
            (Some(a), Some(b)) => b.duration_since(a).as_micros() as f64,
            _ => 0.0,
        };
        let pressure = later.pressure_us.saturating_sub(self.pressure_us) as f64;
        format!(
            "noise: steal_frac={:.4} cpu_pressure_some_frac={:.4} over {:.2}s",
            if total > 0 {
                steal as f64 / total as f64
            } else {
                0.0
            },
            if wall_us > 0.0 {
                pressure / wall_us
            } else {
                0.0
            },
            wall_us * 1e-6
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process whose name starts with `prefix`.
fn live_threads_named(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .count()
}

/// Watches, from a background thread sampling every millisecond, how many
/// live threads carry a name prefix, and keeps the largest count seen — an
/// independent witness of which subsystems a run started (`SessionMux`
/// workers are named `cil-mux-<n>`).
pub struct ThreadWatch {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl ThreadWatch {
    /// Start watching for threads named `prefix*`.
    pub fn start(prefix: &'static str) -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(std::sync::atomic::Ordering::Acquire) {
                max = max.max(live_threads_named(prefix));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            max
        });
        Self { stop, handle }
    }

    /// Stop the watcher, wait for it, and return the largest count seen.
    pub fn finish(self) -> usize {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        self.handle.join().unwrap_or(0)
    }
}

/// A Linux `cpu_set_t` (1024 CPUs).
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Moves the calling thread round-robin over the CPUs it may run on.
///
/// A lone busy thread stays on the core it started on, so a single-loop
/// workload measures whichever core the process happened to land on — and
/// on a shared host one core can run far slower than the other for
/// minutes. Rotating sub-runs over every core makes each run sample the
/// whole machine. Dropping the rotation restores the original mask.
pub struct CpuRotation {
    original: CpuSet,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The calling thread's allowed CPUs; `None` when it has only one or
    /// the mask cannot be read.
    pub fn new() -> Option<Self> {
        let mut original = CpuSet([0; 16]);
        // SAFETY: `original` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) };
        if rc != 0 {
            return None;
        }
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| original.0[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (cpus.len() > 1).then_some(Self { original, cpus })
    }

    /// CPUs rotated over.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    fn set(mask: &CpuSet) {
        // SAFETY: `mask` is a valid buffer of exactly the size passed, and
        // pid 0 names the calling thread. A failure leaves the mask as it
        // was, which only costs the rotation.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    }

    /// Pin the calling thread to slot `slot` (modulo the CPU count); threads
    /// it spawns inherit the pin.
    pub fn pin(&self, slot: usize) {
        let cpu = self.cpus[slot % self.cpus.len()];
        let mut mask = CpuSet([0; 16]);
        mask.0[cpu / 64] |= 1 << (cpu % 64);
        Self::set(&mask);
    }

    /// Let the calling thread run on every CPU again.
    pub fn release(&self) {
        Self::set(&self.original);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        self.release();
    }
}
