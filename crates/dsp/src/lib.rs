//! # cil-dsp — signal-processing substrate
//!
//! Software models of every piece of "electronics" the paper's testbed is
//! built from (Sections III and V): direct digital synthesis, the 14-bit ADC
//! / 16-bit DAC of the FMC151 card, the 2¹³-sample dual-port capture ring
//! buffers, the zero-crossing and period-length detectors, the Gauss pulse
//! generator, linear sample interpolation, FIR/IIR filters for the beam-phase
//! controller, the DSP phase-difference detector, and spectral estimation for
//! scoring traces.
//!
//! Everything here is sample-domain and allocation-free on the hot path:
//! each model is a small state machine advanced one sample (or one query) at
//! a time, exactly like the synchronous logic it stands in for.

pub mod converter;
pub mod dds;
pub mod fir;
pub mod fixed;
pub mod gauss;
pub mod iir;
pub mod interp;
pub mod iq;
pub mod period;
pub mod phase_detector;
pub mod ring_buffer;
pub mod spectrum;
pub mod zero_crossing;

pub use converter::{AdcModel, DacModel};
pub use dds::Dds;
pub use gauss::GaussPulseGenerator;
pub use period::PeriodLengthDetector;
pub use ring_buffer::CaptureRingBuffer;
pub use zero_crossing::ZeroCrossingDetector;
