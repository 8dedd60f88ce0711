//! Wide-lane kick/drift kernel with a deterministic polynomial sine.
//!
//! The tracker's hot loop is one `sin` per macro particle per turn. libm's
//! `sin` is scalar and opaque, so the compiler cannot vectorise across
//! particles and the result bits are at the mercy of the host libm. This
//! module replaces it with a branch-free fdlibm-style polynomial —
//! Cody–Waite range reduction to `[-π/4, π/4]` followed by the fdlibm
//! `__sin`/`__cos` minimax kernels — written so the *same arithmetic, in the
//! same order* runs scalar or autovectorised over explicit 8-wide chunks.
//!
//! # Determinism contract
//!
//! * Every operation is a plain IEEE-754 `+`, `-`, `*`, or compare — no
//!   `mul_add`, no float→int conversion, no table lookup. Elementwise IEEE
//!   ops produce identical bits at any vector width, so the Portable, Avx2
//!   and Avx512 backends are bit-identical by construction; only the
//!   `Libm` reference backend (host `sin`) may differ in the last ulp.
//! * Centroid moments are accumulated in a fixed tree: per-lane partial sums
//!   over [`REDUCE_QUANTUM`]-particle sub-chunks, each folded by the fixed
//!   lane tree `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))`, then a balanced
//!   pairwise fold over the sub-chunk partials ([`fold_moments`]). The tree
//!   shape depends only on the particle count, so the reduced bits are
//!   invariant under thread count, chunk size, block size and backend lane
//!   width.
//!
//! # Accuracy budget
//!
//! The reduction keeps one 33-bit-high + 53-bit-low π/2 split (fdlibm's
//! `pio2_1`/`pio2_1t`), exact while the quadrant index fits ~20 bits:
//! |x| ≲ 2^20 rad, far beyond the tracker's |ω_rf·Δt + φ| ≲ 10³ rad. Within
//! that domain the kernel is within 2 ulp of the host libm **or** within
//! 1e-24 absolute (measured ≤ 1 ulp over a ±2000 rad grid on x86-64; the
//! absolute escape hatch covers the ~1e-26 reduction residue that dominates
//! only where sin(x) itself is ≲ 1e-10, i.e. within a hair of a zero) — the
//! differential harness in `tests/reftrack_kernel.rs` pins this bound.

// The reduction/minimax constants below are quoted digit-for-digit from
// fdlibm so they can be audited against the published values; each rounds
// to exactly the intended f64, and 2/π must stay a literal (not
// `FRAC_2_PI`) to make that provenance checkable in place.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

/// 2/π, rounded to nearest f64.
const INV_PIO2: f64 = 6.366_197_723_675_813_824_33e-1;
/// 1.5 × 2^52 — adding then subtracting rounds to the nearest integer.
const TOINT: f64 = 6.755_399_441_055_744e15;
/// π/2 high part, 33 significant bits (fdlibm `pio2_1`).
const PIO2_HI: f64 = 1.570_796_326_734_125_614_17;
/// π/2 − `PIO2_HI`, full precision (fdlibm `pio2_1t`).
const PIO2_LO: f64 = 6.077_100_506_506_192_249_32e-11;

// fdlibm __sin minimax coefficients on [-π/4, π/4].
const S1: f64 = -1.666_666_666_666_663_243_48e-1;
const S2: f64 = 8.333_333_333_322_489_461_24e-3;
const S3: f64 = -1.984_126_982_985_794_931_34e-4;
const S4: f64 = 2.755_731_370_707_006_767_89e-6;
const S5: f64 = -2.505_076_025_340_686_341_95e-8;
const S6: f64 = 1.589_690_995_211_550_102_21e-10;

// fdlibm __cos minimax coefficients on [-π/4, π/4].
const C1: f64 = 4.166_666_666_666_660_190_37e-2;
const C2: f64 = -1.388_888_888_887_410_957_49e-3;
const C3: f64 = 2.480_158_728_947_672_941_78e-5;
const C4: f64 = -2.755_731_435_139_066_330_35e-7;
const C5: f64 = 2.087_572_321_298_174_827_9e-9;
const C6: f64 = -1.135_964_755_778_819_482_65e-11;

/// Lane width of the explicit-chunk kernels. All backends share it so the
/// per-lane accumulator layout (and therefore the reduced bits) agree.
pub const LANES: usize = 8;

/// Particles per reduction sub-chunk. Chunk boundaries handed to threads are
/// aligned to this quantum, so every sub-chunk's partial sum is produced by
/// exactly one thread and lands in a slot indexed by particle position —
/// independent of how many threads raced over the bunch.
pub const REDUCE_QUANTUM: usize = 256;

/// Branch-free polynomial sine, valid for |x| ≲ 2^20 rad.
///
/// Uses only `+`, `-`, `*` and `==` on f64 so every backend — scalar or
/// autovectorised at any width — performs the identical IEEE operation
/// sequence and returns identical bits.
#[inline(always)]
pub fn poly_sin(x: f64) -> f64 {
    // k = round(x · 2/π) via the TOINT trick (round-to-nearest-even).
    let big = x * INV_PIO2 + TOINT;
    let fn_ = big - TOINT;
    // Quadrant k mod 4 in {-2,-1,0,1,2}, computed in float arithmetic so
    // the loop stays vectorisable (an integer extraction here defeats LLVM's
    // AVX-512 codegen).
    let k4 = fn_ - 4.0 * ((fn_ * 0.25 + TOINT) - TOINT);
    // Cody–Waite: r = x − k·π/2 with a 33-bit head so k·PIO2_HI is exact.
    let r = x - fn_ * PIO2_HI - fn_ * PIO2_LO;
    let z = r * r;
    // fdlibm __sin kernel.
    let sr = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    let s = r + (z * r) * (S1 + z * sr);
    // fdlibm __cos kernel.
    let cr = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let c = w + (((1.0 - w) - hz) + z * cr);
    // Odd quadrants take the cosine branch; quadrants 2,3 negate. Ties in
    // the rounding put k4 at either ±2, so both must negate.
    let odd = k4 == -1.0 || k4 == 1.0;
    let neg = k4 == -2.0 || k4 == 2.0 || k4 == -1.0;
    let v = if odd { c } else { s };
    if neg {
        -v
    } else {
        v
    }
}

/// Distance in units in the last place between two finite f64.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    let order = |x: f64| {
        let u = x.to_bits() as i64;
        if u < 0 {
            i64::MIN - u
        } else {
            u
        }
    };
    order(a).abs_diff(order(b))
}

/// Kernel backend selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Pick the widest polynomial backend the CPU supports at runtime.
    Auto,
    /// Host libm `f64::sin`, scalar — the accuracy reference. Matches
    /// `cil_physics::tracking::TwoParticleMap` bit-for-bit.
    Libm,
    /// Polynomial sine over explicit 8-wide chunks; autovectorises on the
    /// baseline target features.
    Portable,
    /// Polynomial sine compiled with AVX2 enabled (runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Polynomial sine compiled with AVX-512F enabled (runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl KernelBackend {
    /// Resolve `Auto` to the widest backend this CPU supports. Non-`Auto`
    /// values pass through unchanged.
    pub fn resolve(self) -> Self {
        match self {
            Self::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        return Self::Avx512;
                    }
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return Self::Avx2;
                    }
                }
                Self::Portable
            }
            other => other,
        }
    }

    /// Every backend that can run on this host, `Libm` and `Auto` included.
    pub fn available() -> Vec<Self> {
        let mut v = vec![Self::Auto, Self::Libm, Self::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Self::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                v.push(Self::Avx512);
            }
        }
        v
    }

    /// The polynomial backends runnable on this host — the set the
    /// bit-identity tests quantify over (excludes `Libm`, which is allowed
    /// to differ in the last ulp, and `Auto`, which resolves to one of
    /// these).
    pub fn poly_available() -> Vec<Self> {
        Self::available()
            .into_iter()
            .filter(|b| !matches!(b, Self::Auto | Self::Libm))
            .collect()
    }

    /// Stable lowercase label for telemetry and bench output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Libm => "libm",
            Self::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => "avx512",
        }
    }
}

/// Per-turn scalar parameters of the kick/drift map.
#[derive(Debug, Clone, Copy)]
pub struct KickParams {
    /// RF angular frequency ω_rf (rad/s).
    pub omega_rf: f64,
    /// Gap phase offset (rad): programmed jumps plus control action.
    pub phase_rad: f64,
    /// Peak gap voltage V̂ (V).
    pub v_hat: f64,
    /// Δγ per volt for the tracked species.
    pub q_over_mc2: f64,
    /// Phase-slip drift coefficient (s per unit Δγ per turn).
    pub drift: f64,
}

/// Partial centroid moment of one [`REDUCE_QUANTUM`] sub-chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChunkMoment {
    /// Σ Δt over the sub-chunk after the update.
    pub sum_dt: f64,
    /// Σ Δγ over the sub-chunk after the update.
    pub sum_dgamma: f64,
}

/// Fixed lane-fold tree shared by every backend.
#[inline(always)]
fn lane_fold(a: &[f64; LANES]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// The kick/drift update over one sub-chunk, generic in the sine so the
/// libm reference and the polynomial kernels share one loop body (and one
/// accumulator layout). `#[inline(always)]` so each `#[target_feature]`
/// wrapper gets its own copy to vectorise with its wider ISA.
#[inline(always)]
fn rows_with<S: Fn(f64) -> f64 + Copy>(
    dt: &mut [f64],
    dg: &mut [f64],
    p: &KickParams,
    sine: S,
) -> ChunkMoment {
    let mut acc_t = [0.0f64; LANES];
    let mut acc_g = [0.0f64; LANES];
    let full = dt.len() / LANES * LANES;
    let (dt_head, dt_rem) = dt.split_at_mut(full);
    let (dg_head, dg_rem) = dg.split_at_mut(full);
    for (tc, gc) in dt_head
        .chunks_exact_mut(LANES)
        .zip(dg_head.chunks_exact_mut(LANES))
    {
        let t: &mut [f64; LANES] = tc.try_into().unwrap();
        let g: &mut [f64; LANES] = gc.try_into().unwrap();
        for j in 0..LANES {
            let s = sine(p.omega_rf * t[j] + p.phase_rad);
            let v = p.v_hat * s;
            g[j] += p.q_over_mc2 * v;
            t[j] += p.drift * g[j];
            acc_t[j] += t[j];
            acc_g[j] += g[j];
        }
    }
    for j in 0..dt_rem.len() {
        let s = sine(p.omega_rf * dt_rem[j] + p.phase_rad);
        let v = p.v_hat * s;
        dg_rem[j] += p.q_over_mc2 * v;
        dt_rem[j] += p.drift * dg_rem[j];
        acc_t[j] += dt_rem[j];
        acc_g[j] += dg_rem[j];
    }
    ChunkMoment {
        sum_dt: lane_fold(&acc_t),
        sum_dgamma: lane_fold(&acc_g),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_avx2(dt: &mut [f64], dg: &mut [f64], p: &KickParams) -> ChunkMoment {
    rows_with(dt, dg, p, poly_sin)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_avx512(dt: &mut [f64], dg: &mut [f64], p: &KickParams) -> ChunkMoment {
    rows_with(dt, dg, p, poly_sin)
}

/// Apply the kick/drift update to one thread's chunk, writing one
/// [`ChunkMoment`] per [`REDUCE_QUANTUM`] sub-chunk into `partials`
/// (`partials.len() == dt.len().div_ceil(REDUCE_QUANTUM)`).
///
/// `backend` must already be resolved (not `Auto`).
pub fn kick_drift_chunk(
    backend: KernelBackend,
    dt: &mut [f64],
    dg: &mut [f64],
    p: &KickParams,
    partials: &mut [ChunkMoment],
) {
    debug_assert!(!matches!(backend, KernelBackend::Auto), "resolve() first");
    debug_assert_eq!(partials.len(), dt.len().div_ceil(REDUCE_QUANTUM));
    for ((ts, gs), slot) in dt
        .chunks_mut(REDUCE_QUANTUM)
        .zip(dg.chunks_mut(REDUCE_QUANTUM))
        .zip(partials.iter_mut())
    {
        *slot = match backend {
            KernelBackend::Auto | KernelBackend::Portable => rows_with(ts, gs, p, poly_sin),
            KernelBackend::Libm => rows_with(ts, gs, p, f64::sin),
            // Safety: `resolve()`/`available()` only yield these variants
            // when the CPU reports the feature.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => unsafe { rows_avx2(ts, gs, p) },
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => unsafe { rows_avx512(ts, gs, p) },
        };
    }
}

/// Balanced pairwise fold of the sub-chunk partials. The split depends only
/// on the slot count (hence only on the particle count), so the reduction
/// tree — and the reduced bits — are invariant under threading and backend.
pub fn fold_moments(partials: &[ChunkMoment]) -> ChunkMoment {
    match partials {
        [] => ChunkMoment::default(),
        [one] => *one,
        many => {
            let (lo, hi) = many.split_at(many.len().div_ceil(2));
            let a = fold_moments(lo);
            let b = fold_moments(hi);
            ChunkMoment {
                sum_dt: a.sum_dt + b.sum_dt,
                sum_dgamma: a.sum_dgamma + b.sum_dgamma,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_sin_matches_libm_to_two_ulp() {
        let mut worst = 0u64;
        let mut x = -2000.0;
        while x < 2000.0 {
            worst = worst.max(ulp_distance(poly_sin(x), x.sin()));
            x += 1.234_567e-3;
        }
        assert!(worst <= 2, "max ulp distance {worst}");
    }

    #[test]
    fn poly_sin_special_values() {
        assert_eq!(poly_sin(0.0).to_bits(), 0.0f64.to_bits());
        // The polynomial sum rounds −0 + 0 to +0, so the sign of zero is
        // not preserved (unlike libm); the value is still exact.
        assert_eq!(poly_sin(-0.0), 0.0);
        assert!(poly_sin(f64::NAN).is_nan());
        // Quadrant boundaries (k·π/2 neighbourhood) through both branches.
        // At even k the true sine is ~5e-16·k, smaller than the ~1e-26
        // absolute residue of the two-term reduction, so the relative-ulp
        // bound gives way to the absolute bound there.
        for k in -8i32..=8 {
            let x = f64::from(k) * std::f64::consts::FRAC_PI_2;
            let (a, b) = (poly_sin(x), x.sin());
            assert!(
                ulp_distance(a, b) <= 2 || (a - b).abs() < 1e-24,
                "x = {k}·π/2: {a} vs {b}"
            );
        }
    }

    #[test]
    fn backends_bit_identical_on_one_chunk() {
        let p = KickParams {
            omega_rf: std::f64::consts::TAU * 3.2e6,
            phase_rad: 0.137,
            v_hat: 4.2e3,
            q_over_mc2: 5.3e-10,
            drift: 1.7e-5,
        };
        let n = 777usize; // exercises the lane remainder and a ragged sub-chunk
        let dt0: Vec<f64> = (0..n).map(|i| (i as f64 - 388.0) * 3.1e-10).collect();
        let dg0: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e-4).collect();
        let reference: Option<(Vec<f64>, Vec<f64>, Vec<ChunkMoment>)> = None;
        let mut reference = reference;
        for backend in KernelBackend::poly_available() {
            let mut dt = dt0.clone();
            let mut dg = dg0.clone();
            let mut parts = vec![ChunkMoment::default(); n.div_ceil(REDUCE_QUANTUM)];
            for _ in 0..200 {
                kick_drift_chunk(backend, &mut dt, &mut dg, &p, &mut parts);
            }
            match &reference {
                None => reference = Some((dt, dg, parts)),
                Some((rt, rg, rp)) => {
                    assert!(
                        rt.iter().zip(&dt).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "dt bits differ on {}",
                        backend.label()
                    );
                    assert!(
                        rg.iter().zip(&dg).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "dgamma bits differ on {}",
                        backend.label()
                    );
                    assert_eq!(rp, &parts, "partials differ on {}", backend.label());
                }
            }
        }
    }

    #[test]
    fn fold_moments_is_independent_of_partition() {
        // Folding the same slots is one call — partition independence is
        // about the *producer* side: slots filled by different chunkings of
        // the same particles must agree. kick_drift_chunk writes each slot
        // from exactly the particles of one sub-chunk, so filling the slots
        // through two chunk sizes must give identical slot values.
        let p = KickParams {
            omega_rf: 2.1e7,
            phase_rad: -0.4,
            v_hat: 1.1e3,
            q_over_mc2: 4.4e-10,
            drift: 3.3e-6,
        };
        let n = 4 * REDUCE_QUANTUM + 19;
        let dt0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618).cos() * 2e-9).collect();
        let dg0 = vec![0.0f64; n];
        let slots = n.div_ceil(REDUCE_QUANTUM);
        let run = |split: usize| {
            let mut dt = dt0.clone();
            let mut dg = dg0.clone();
            let mut parts = vec![ChunkMoment::default(); slots];
            let cut = split * REDUCE_QUANTUM;
            let (t_lo, t_hi) = dt.split_at_mut(cut);
            let (g_lo, g_hi) = dg.split_at_mut(cut);
            let (p_lo, p_hi) = parts.split_at_mut(split);
            kick_drift_chunk(KernelBackend::Portable, t_lo, g_lo, &p, p_lo);
            kick_drift_chunk(KernelBackend::Portable, t_hi, g_hi, &p, p_hi);
            let m = fold_moments(&parts);
            (dt, dg, m)
        };
        let whole = run(0);
        for split in 1..=4 {
            let cut = run(split);
            assert_eq!(whole.0, cut.0, "dt differs at split {split}");
            assert_eq!(whole.1, cut.1, "dgamma differs at split {split}");
            assert_eq!(whole.2, cut.2, "folded moment differs at split {split}");
        }
    }

    #[test]
    fn auto_resolves_to_available_poly_backend() {
        let r = KernelBackend::Auto.resolve();
        assert!(KernelBackend::poly_available().contains(&r), "{r:?}");
        assert_eq!(r.resolve(), r);
    }
}
