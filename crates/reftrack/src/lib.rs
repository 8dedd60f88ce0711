//! # cil-reftrack — multi-macro-particle reference tracker
//!
//! The ESME / LONG1D / BLonD-class offline simulator the paper cites as
//! related work (Section II), built here for two jobs:
//!
//! 1. **The "real beam" stand-in for Fig. 5b.** The paper validates its
//!    single-macro-particle HIL against the actual SIS18 beam; without an
//!    accelerator, the accepted ground truth is a many-particle nonlinear
//!    tracker, which exhibits the collective effects the paper discusses
//!    (Landau damping, filamentation) that one macro particle cannot show.
//! 2. **The future-work features of Section VI**: multi-macro-particle
//!    simulation enabling quadrupole modes and parametric bunch profiles.
//!
//! The tracker is deliberately *not* real-time — that is the paper's point —
//! and instead optimises for throughput: structure-of-arrays storage and
//! scoped-thread parallelism over fixed particle chunks, with a
//! deterministic merge so a given seed always produces the same trajectory
//! regardless of thread count.

pub mod ensemble;
pub mod kernel;
pub mod landau;
pub mod observables;
pub mod tracker;
pub mod wake;

pub use ensemble::Ensemble;
pub use kernel::KernelBackend;
pub use tracker::{MultiParticleTracker, StepMoments, TrackerConfig};
