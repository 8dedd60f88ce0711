//! Versioned, CRC-checksummed binary checkpoints of the complete
//! closed-loop state.
//!
//! A loop service that dies mid-ramp must come back *bit-identical*: the
//! resumed run has to reproduce the same trace rows, the same audit events
//! and the same deterministic telemetry as an uninterrupted one, or every
//! replay-based analysis downstream silently diverges. This module provides
//! the snapshot format and the write-ahead trace log that make that
//! possible.
//!
//! # On-disk layout
//!
//! A checkpoint directory holds two kinds of files:
//!
//! * `trace.log` — an append-only write-ahead log of *delta blocks*. Once
//!   per checkpoint cadence the rows, audit events and jump edges produced
//!   since the previous checkpoint are appended as one framed block. The
//!   log is never rewritten, so total trace I/O over a run is O(rows), not
//!   O(rows²) as embedding the full partial trace in every snapshot would
//!   be.
//! * `ckpt_<turn>.cil` — small rolling state snapshots. Each records the
//!   complete mutable loop state (engine, controller, fault injector,
//!   supervisor, telemetry counters) plus a *consistent cut* into the
//!   trace log: the row/event/jump totals and the byte length of
//!   `trace.log` at the instant the snapshot was taken.
//!
//! Snapshots are written atomically (temp file + rename) and framed with a
//! magic, a version, an explicit payload length and a CRC-32, so a torn or
//! corrupted file is *detected*, never silently applied. Recovery walks
//! snapshots newest-first, rejects bad ones (auditing each rejection as
//! [`LoopEvent::CheckpointRejected`]) and falls back to the next older
//! good one; the trace log is truncated to the chosen snapshot's cut, which
//! also discards any torn tail block.
//!
//! What is *not* captured: configuration. Scenario, fault program, kernel
//! programs, filter taps, LUTs and the [`crate::engine::CompiledKernelCache`]
//! are all rebuilt from the scenario on resume — the checkpoint carries
//! only state that evolves at run time.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::control::ControllerState;
use crate::engine::{
    CgraEngineState, EngineKind, EngineState, MapEngineState, RampEngineState, RefTrackEngineState,
    SignalLevelEngineState, TurnStateSnapshot,
};
use crate::fault::{
    CavityPlantState, FaultInjectorState, FaultKind, LoopEvent, LossCause, StepCalibration,
    SupervisorState,
};
use crate::framework::FrameworkState;
use crate::harness::LoopTrace;
use crate::signalgen::SignalBenchState;
use crate::telemetry::HistogramSnapshot;
use cil_cgra::ExecutorState;
use cil_dsp::converter::AdcFault;
use cil_dsp::dds::DdsState;
use cil_dsp::fir::FirState;
use cil_dsp::gauss::GaussPulseState;
use cil_dsp::period::PeriodDetectorState;
use cil_dsp::phase_detector::PhaseDetectorState;
use cil_dsp::ring_buffer::RingBufferState;
use cil_dsp::zero_crossing::ZeroCrossingState;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CILCKPT\0";
/// Current snapshot format version. Version 2 added the cavity plant
/// (fault scale/detune phase, compensation boost), the controller gain
/// scale and the supervisor compensation ladder to the payload.
pub const SNAPSHOT_VERSION: u32 = 2;
/// Trace-log block magic ("TRCB").
const BLOCK_MAGIC: u32 = 0x5452_4342;
/// Name of the write-ahead trace log inside a checkpoint directory.
pub const TRACE_LOG_NAME: &str = "trace.log";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — no external dependency.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Error type
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be written, decoded or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing checkpoint files.
    Io(std::io::Error),
    /// The file is shorter than the fixed header.
    TooShort,
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not one this build can decode.
    UnsupportedVersion(u32),
    /// The declared payload length disagrees with the file size (torn
    /// write).
    LengthMismatch,
    /// The payload checksum does not match (bit rot or torn write).
    CrcMismatch,
    /// The payload is structurally invalid.
    Malformed(&'static str),
    /// The snapshot decoded but cannot be applied to this run
    /// configuration.
    Incompatible(&'static str),
    /// No usable checkpoint was found in the directory.
    NoCheckpoint,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
            Self::TooShort => write!(f, "file shorter than the checkpoint header"),
            Self::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            Self::LengthMismatch => write!(f, "declared payload length disagrees with file size"),
            Self::CrcMismatch => write!(f, "payload CRC mismatch"),
            Self::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
            Self::Incompatible(what) => write!(f, "checkpoint incompatible with this run: {what}"),
            Self::NoCheckpoint => write!(f, "no usable checkpoint found"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

type R<T> = std::result::Result<T, CheckpointError>;

// ---------------------------------------------------------------------------
// Little-endian codec (shared with the campaign WAL)
// ---------------------------------------------------------------------------

/// One persisted type's wire layout, little-endian throughout.
///
/// Every state type, enum and WAL record has exactly one implementation,
/// and the compound ones come from a single field list in wire order
/// ([`codec_struct!`], [`codec_enum!`]): the encoder and the decoder are
/// generated from the same declaration, so they cannot drift apart.
/// Reordering, adding or removing a field changes the bytes and must bump
/// [`SNAPSHOT_VERSION`] (or the campaign WAL version).
pub(crate) trait Codec: Sized {
    /// Fewest bytes any value encodes to. Declared collection lengths are
    /// capped against it, so a hostile length fails before allocating.
    const MIN_BYTES: usize;
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec) -> R<Self>;
    /// A pseudo-random value, for the generic codec properties.
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self;
}

#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    /// A run of values behind a `u32` count (trace blocks, WAL shards).
    pub(crate) fn run32<T: Codec>(&mut self, items: &[T]) {
        (items.len() as u32).enc(self);
        for item in items {
            item.enc(self);
        }
    }
}

pub(crate) struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> R<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return Err(CheckpointError::Malformed("unexpected end of payload"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> R<[u8; N]> {
        Ok(self.bytes(N)?.try_into().unwrap())
    }
    /// Read a count (an `N`) of elements of at least `elem_bytes` each,
    /// checked against the bytes left in the payload so a corrupted count
    /// can never trigger a huge allocation.
    pub(crate) fn count<N: Codec + Into<u64>>(&mut self, elem_bytes: usize) -> R<usize> {
        let n: u64 = N::dec(self)?.into();
        let left = (self.data.len() - self.pos) as u64;
        if n.saturating_mul(elem_bytes.max(1) as u64) > left {
            return Err(CheckpointError::Malformed(
                "collection length exceeds payload",
            ));
        }
        Ok(n as usize)
    }
    /// Decode a [`Enc::run32`] run.
    pub(crate) fn run32<T: Codec>(&mut self) -> R<Vec<T>> {
        let n = self.count::<u32>(T::MIN_BYTES)?;
        (0..n).map(|_| T::dec(self)).collect()
    }
    pub(crate) fn finish(&self) -> R<()> {
        if self.pos != self.data.len() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

macro_rules! codec_le {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn enc(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn dec(d: &mut Dec) -> R<Self> {
                Ok(Self::from_le_bytes(d.array()?))
            }
            #[cfg(test)]
            fn arbitrary(g: &mut tests::Gen) -> Self {
                g.next() as $t
            }
        }
    )+};
}
codec_le!(u8, u32, u64, i64);

impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.to_bits().enc(e);
    }
    fn dec(d: &mut Dec) -> R<Self> {
        Ok(Self::from_bits(u64::dec(d)?))
    }
    /// Any bit pattern but NaN, which never compares equal (the golden
    /// trace block pins a NaN's bits).
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        let x = f64::from_bits(g.next());
        if x.is_nan() {
            -0.0
        } else {
            x
        }
    }
}

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        u8::from(*self).enc(e);
    }
    fn dec(d: &mut Dec) -> R<Self> {
        match u8::dec(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("boolean byte out of range")),
        }
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        g.below(2) == 1
    }
}

/// Sent as a `u64`.
impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        (*self as u64).enc(e);
    }
    fn dec(d: &mut Dec) -> R<Self> {
        usize::try_from(u64::dec(d)?)
            .map_err(|_| CheckpointError::Malformed("length exceeds platform usize"))
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        g.next() as usize
    }
}

/// Sent as an `i64`, range-checked on decode.
impl Codec for i32 {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        i64::from(*self).enc(e);
    }
    fn dec(d: &mut Dec) -> R<Self> {
        i32::try_from(i64::dec(d)?).map_err(|_| CheckpointError::Malformed("i32 out of range"))
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        g.next() as i32
    }
}

/// Byte length, then UTF-8 bytes.
impl Codec for String {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.len().enc(e);
        e.buf.extend_from_slice(self.as_bytes());
    }
    fn dec(d: &mut Dec) -> R<Self> {
        let n = d.count::<u64>(1)?;
        String::from_utf8(d.bytes(n)?.to_vec())
            .map_err(|_| CheckpointError::Malformed("string is not valid UTF-8"))
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        (0..g.below(6))
            .map(|_| ['a', 'Z', '7', ' ', '"', 'é'][g.below(6)])
            .collect()
    }
}

/// Tag byte 0 (`None`) or 1 (`Some`), then the value.
impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        match self {
            None => 0u8.enc(e),
            Some(v) => {
                1u8.enc(e);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> R<Self> {
        match u8::dec(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            _ => Err(CheckpointError::Malformed("option tag out of range")),
        }
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        (g.below(2) == 1).then(|| T::arbitrary(g))
    }
}

/// Element count (`usize`), then the elements.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.len().enc(e);
        for x in self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> R<Self> {
        let n = d.count::<u64>(T::MIN_BYTES)?;
        (0..n).map(|_| T::dec(d)).collect()
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        (0..g.below(4)).map(|_| T::arbitrary(g)).collect()
    }
}

impl<T: Codec> Codec for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn enc(&self, e: &mut Enc) {
        (**self).enc(e);
    }
    fn dec(d: &mut Dec) -> R<Self> {
        Ok(Box::new(T::dec(d)?))
    }
    #[cfg(test)]
    fn arbitrary(g: &mut tests::Gen) -> Self {
        Box::new(T::arbitrary(g))
    }
}

/// Smallest entry of a non-empty list, for an enum's [`Codec::MIN_BYTES`].
pub(crate) const fn min_bytes(xs: &[usize]) -> usize {
    let mut m = xs[0];
    let mut i = 1;
    while i < xs.len() {
        if xs[i] < m {
            m = xs[i];
        }
        i += 1;
    }
    m
}

/// Declare structs' wire layouts: each struct's fields, with their types,
/// in wire order. The field list is the type's one [`Codec`].
macro_rules! codec_struct {
    ($($T:ident { $($f:ident: $ft:ty),+ $(,)? })+) => {$(
        impl $crate::checkpoint::Codec for $T {
            const MIN_BYTES: usize = 0 $(+ <$ft as $crate::checkpoint::Codec>::MIN_BYTES)+;
            fn enc(&self, e: &mut $crate::checkpoint::Enc) {
                $(<$ft as $crate::checkpoint::Codec>::enc(&self.$f, e);)+
            }
            fn dec(
                d: &mut $crate::checkpoint::Dec,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self { $($f: <$ft as $crate::checkpoint::Codec>::dec(d)?),+ })
            }
            #[cfg(test)]
            fn arbitrary(g: &mut $crate::checkpoint::tests::Gen) -> Self {
                Self { $($f: <$ft as $crate::checkpoint::Codec>::arbitrary(g)),+ }
            }
        }
    )+};
}
pub(crate) use codec_struct;

/// Declare `u8`-tagged enums' wire layouts: each variant's tag, then its
/// fields (named, with their types) in wire order. The variant list is the
/// type's one [`Codec`].
macro_rules! codec_enum {
    ($($T:ident {
        $($tag:literal => $V:ident
            $(($($t:ident: $tt:ty),+))?
            $({ $($f:ident: $ft:ty),+ $(,)? })?
        ),+ $(,)?
    })+) => {$(
        impl $crate::checkpoint::Codec for $T {
            const MIN_BYTES: usize = 1 + $crate::checkpoint::min_bytes(&[$(
                0 $($(+ <$tt as $crate::checkpoint::Codec>::MIN_BYTES)+)?
                  $($(+ <$ft as $crate::checkpoint::Codec>::MIN_BYTES)+)?
            ),+]);
            fn enc(&self, e: &mut $crate::checkpoint::Enc) {
                match self {
                    $(Self::$V $(($($t),+))? $({ $($f),+ })? => {
                        <u8 as $crate::checkpoint::Codec>::enc(&$tag, e);
                        $($(<$tt as $crate::checkpoint::Codec>::enc($t, e);)+)?
                        $($(<$ft as $crate::checkpoint::Codec>::enc($f, e);)+)?
                    })+
                }
            }
            fn dec(
                d: &mut $crate::checkpoint::Dec,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(match <u8 as $crate::checkpoint::Codec>::dec(d)? {
                    $($tag => Self::$V
                        $(($(<$tt as $crate::checkpoint::Codec>::dec(d)?),+))?
                        $({ $($f: <$ft as $crate::checkpoint::Codec>::dec(d)?),+ })?,)+
                    _ => {
                        return Err($crate::checkpoint::CheckpointError::Malformed(concat!(
                            stringify!($T),
                            " tag out of range"
                        )))
                    }
                })
            }
            #[cfg(test)]
            fn arbitrary(g: &mut $crate::checkpoint::tests::Gen) -> Self {
                let tags: &[u8] = &[$($tag),+];
                match tags[g.below(tags.len())] {
                    $($tag => Self::$V
                        $(($(<$tt as $crate::checkpoint::Codec>::arbitrary(g)),+))?
                        $({ $($f: <$ft as $crate::checkpoint::Codec>::arbitrary(g)),+ })?,)+
                    _ => unreachable!(),
                }
            }
        }
    )+};
}
pub(crate) use codec_enum;

// ---------------------------------------------------------------------------
// Generic log framing (shared by the trace log and the campaign WAL)
// ---------------------------------------------------------------------------

/// Frame a payload for an append-only log:
/// `magic (u32 LE) + payload length (u64 LE) + payload + CRC-32 (u32 LE)`.
/// The same framing protects `trace.log` delta blocks and
/// [`crate::campaign`]'s `campaign.log` shard commits.
pub(crate) fn frame_block(magic: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(payload);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Read the framed block starting at `pos`. Returns `Ok(None)` exactly at
/// end-of-input, `Ok(Some((payload, next_pos)))` for a well-formed block,
/// and a typed error for anything torn, truncated or corrupted — the caller
/// decides whether that is fatal (trace-log recovery) or the torn tail of
/// an append-only WAL to truncate past (campaign resume).
pub(crate) fn next_frame(bytes: &[u8], pos: usize, magic: u32) -> R<Option<(&[u8], usize)>> {
    if pos >= bytes.len() {
        return Ok(None);
    }
    if bytes.len() - pos < 12 {
        return Err(CheckpointError::TooShort);
    }
    let got = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    if got != magic {
        return Err(CheckpointError::BadMagic);
    }
    let payload_len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
    let payload_len = usize::try_from(payload_len).map_err(|_| CheckpointError::LengthMismatch)?;
    let body_start = pos + 12;
    let body_end = body_start
        .checked_add(payload_len)
        .ok_or(CheckpointError::LengthMismatch)?;
    if body_end.checked_add(4).is_none_or(|end| end > bytes.len()) {
        return Err(CheckpointError::LengthMismatch);
    }
    let payload = &bytes[body_start..body_end];
    let crc = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().unwrap());
    if crc32(payload) != crc {
        return Err(CheckpointError::CrcMismatch);
    }
    Ok(Some((payload, body_end + 4)))
}

// ---------------------------------------------------------------------------
// Wire layouts of the persisted state types
// ---------------------------------------------------------------------------

codec_struct! {
    CavityPlantState { boost: f64, phase_rad: f64 }
    TurnStateSnapshot {
        time: f64, ctrl_phase_rad: f64, applied_jump_deg: f64, cavity: CavityPlantState,
    }
    ExecutorState { regs: Vec<f64>, iterations: u64 }
    DdsState { acc: u64, increment: u64, amplitude: f64, dropout: bool }
    RingBufferState { data: Vec<f64>, head: usize, written: u64 }
    ZeroCrossingState {
        last_sample: f64, sample_index: u64, last_crossing: Option<u64>, last_crossing_frac: f64,
        armed: bool, crossings_seen: u64,
    }
    PeriodDetectorState {
        zcd: ZeroCrossingState, history: Vec<f64>, cursor: usize, filled: usize,
        last_crossing: Option<f64>,
    }
    GaussPulseState { playing: Option<usize>, armed_at: Vec<u64>, now: u64, amplitude: f64 }
    FirState { delay: Vec<f64>, cursor: usize }
    PhaseDetectorState {
        zcd: ZeroCrossingState, period_samples: f64, in_pulse: bool, acc_weight: f64,
        acc_moment: f64, pulse_start: u64, sample_index: u64, last_ref_crossing: Option<f64>,
        dropped: u64, resync: bool, suppress_pulse: bool,
    }
    SignalBenchState {
        reference: DdsState, gap: DdsState, sample: u64, applied_jump_deg: f64,
        ctrl_freq_offset: f64, cavity_scale: f64, cavity_detune_hz: f64,
    }
    FrameworkState {
        executor: ExecutorState, ref_buffer: RingBufferState, gap_buffer: RingBufferState,
        period: PeriodDetectorState, pulses: Vec<GaussPulseState>, sample: u64,
        last_crossing_sample: Option<u64>, prev_crossing_sample: Option<u64>, last_dt: Vec<f64>,
        monitor_value: f64, warmed_up: bool, recording: bool, revolutions: u64, adc_rng: u64,
        adc_fault: Option<AdcFault>,
    }
    MapEngineState { gamma_r: f64, dgamma: f64, dt: f64, turn: TurnStateSnapshot }
    CgraEngineState {
        executor: ExecutorState, gap_phase_rad: f64, gap_dropout: bool, dt_out: Vec<f64>,
        turn: TurnStateSnapshot,
    }
    RefTrackEngineState {
        dt: Vec<f64>, dgamma: Vec<f64>, tracker_turn: u64, turn: TurnStateSnapshot,
    }
    RampEngineState {
        gamma_r: f64, dgamma: f64, dt: f64, time: f64, tracker_turn: u64, ctrl_phase_rad: f64,
        applied_jump_deg: f64, last_f_rev: f64, last_gamma_r: f64, last_phi_s_deg: f64,
    }
    SignalLevelEngineState {
        bench: SignalBenchState, fw: FrameworkState, detector: PhaseDetectorState,
        period_samples: f64, sample: u64, period_admitted: u64, period_rejected: u64,
        cavity: CavityPlantState,
    }
    // Not declaration order: `enabled` precedes `gain_scale` on the wire.
    ControllerState {
        dc_x1: f64, dc_y1: f64, fir: FirState, acc: f64, acc_n: u32, last_output: f64,
        enabled: bool, gain_scale: f64,
    }
    FaultInjectorState { rng: u64, activated: Vec<bool>, corrupted_rows: usize }
    StepCalibration { kind: EngineKind, step_seconds: f64 }
    SupervisorState {
        rng: u64, last_good: Option<f64>, bad_streak: u32, calibration: Option<StepCalibration>,
        boost: f64, gain_scale: f64, sag_latched: bool,
    }
    HistogramSnapshot { buckets: Vec<u64>, count: u64, sum: f64 }
    TelemetryCheckpoint {
        idle_steps: u64, step_modeled: HistogramSnapshot, deadline_headroom: HistogramSnapshot,
    }
    Checkpoint {
        turn: u64, time_s: f64, supervised: bool, kind: EngineKind, bunches: u32,
        engine: EngineState, controller: ControllerState, injector: FaultInjectorState,
        supervisor: Option<SupervisorState>, ctrl_phase_rad: f64, last_jump_deg: f64, rows: u64,
        events: u64, jumps: u64, log_bytes: u64, telemetry: Option<TelemetryCheckpoint>,
    }
}

codec_enum! {
    EngineKind { 0 => Map, 1 => Cgra, 2 => RefTrack { particles: usize, seed: u64 } }
    AdcFault { 0 => Saturated, 1 => StuckCode(code: i32), 2 => BitFlip(bit: u32) }
    EngineState {
        0 => Map(s: MapEngineState),
        1 => Cgra(s: CgraEngineState),
        2 => RefTrack(s: RefTrackEngineState),
        3 => Ramp(s: RampEngineState),
        4 => SignalLevel(s: Box<SignalLevelEngineState>),
    }
    FaultKind {
        0 => AdcSaturation,
        1 => AdcStuckCode { code: i32 },
        2 => AdcBitFlip { bit: u32 },
        3 => DdsDropout,
        4 => DetectorOutlier { probability: f64, amplitude_deg: f64 },
        5 => NanBurst { probability: f64 },
        6 => BeamLoss,
        7 => DeadlineOverrun { factor: f64 },
        8 => CavityDetune { drift_hz_per_s: f64 },
        9 => CavityQuench { collapse_s: f64 },
        10 => CavityTrip { recover_s: f64 },
    }
    LossCause {
        0 => Injected, 1 => NonFinitePhase, 2 => BucketOverdemand, 3 => OutOfBucket,
        4 => Watchdog, 5 => CavityFault,
    }
    LoopEvent {
        0 => FaultActive { turn: usize, time_s: f64, kind: FaultKind },
        1 => RowCorrupted { turn: usize, time_s: f64 },
        2 => OutlierRejected { turn: usize, time_s: f64, measured_deg: f64, held_deg: f64 },
        3 => ActuationClamped { turn: usize, time_s: f64, raw_hz: f64, limit_hz: f64 },
        4 => DeadlineOverrun { turn: usize, time_s: f64, budget_s: f64, modeled_s: f64 },
        5 => EngineDemoted { turn: usize, time_s: f64, from: EngineKind, to: EngineKind },
        6 => BeamLost { turn: usize, time_s: f64, cause: LossCause },
        7 => CheckpointRejected { turn: usize, time_s: f64 },
        8 => CavitySagDetected { turn: usize, time_s: f64, voltage_scale: f64 },
        9 => CompensationEngaged { turn: usize, time_s: f64, boost: f64, gain_scale: f64 },
    }
}

// ---------------------------------------------------------------------------
// The snapshot itself
// ---------------------------------------------------------------------------

/// Deterministic telemetry carried across a resume: the counters and
/// histograms the loop accumulates *mid-run* (everything else is derived
/// from the trace at run end, or is wall-clock and excluded from
/// determinism comparisons anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryCheckpoint {
    /// Idle (non-measuring) engine steps so far.
    pub idle_steps: u64,
    /// Modelled step wall-clock histogram (supervised runs).
    pub step_modeled: HistogramSnapshot,
    /// Deadline headroom histogram (supervised runs).
    pub deadline_headroom: HistogramSnapshot,
}

/// The complete mutable state of one closed-loop run at a row boundary.
///
/// Everything needed to continue the loop bit-identically, *except*
/// configuration (scenario, fault program, kernel programs), which is
/// rebuilt on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Row index (trace rows emitted so far) at the cut.
    pub turn: u64,
    /// Engine time at the cut, seconds.
    pub time_s: f64,
    /// True when written by a supervised run.
    pub supervised: bool,
    /// The engine fidelity *currently running* (after any demotions).
    pub kind: EngineKind,
    /// Bunch count of the trace rows.
    pub bunches: u32,
    /// Full engine state.
    pub engine: EngineState,
    /// Controller + DC-blocker + FIR + decimation state.
    pub controller: ControllerState,
    /// Fault injector RNG cursor and activation latches.
    pub injector: FaultInjectorState,
    /// Supervisor state (supervised runs only).
    pub supervisor: Option<SupervisorState>,
    /// Supervised-loop accumulated control phase mirror, radians.
    pub ctrl_phase_rad: f64,
    /// Last applied jump offset seen by the edge detector, degrees.
    pub last_jump_deg: f64,
    /// Trace rows covered by the log cut.
    pub rows: u64,
    /// Audit events covered by the log cut.
    pub events: u64,
    /// Jump edges covered by the log cut.
    pub jumps: u64,
    /// Byte length of `trace.log` at the cut.
    pub log_bytes: u64,
    /// Mid-run deterministic telemetry, when telemetry is attached.
    pub telemetry: Option<TelemetryCheckpoint>,
}

/// Encode a snapshot into the framed on-disk representation
/// (magic + version + length + payload + CRC-32).
pub fn encode_snapshot(ck: &Checkpoint) -> Vec<u8> {
    let mut e = Enc::default();
    ck.enc(&mut e);
    let payload = e.buf;

    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a framed snapshot. Every failure mode of a torn, truncated,
/// bit-rotted or hostile file maps to a typed [`CheckpointError`]; this
/// function never panics on arbitrary input.
pub fn decode_snapshot(data: &[u8]) -> R<Checkpoint> {
    const HEADER: usize = 8 + 4 + 8;
    if data.len() < HEADER + 4 {
        return Err(CheckpointError::TooShort);
    }
    if data[..8] != SNAPSHOT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(data[12..20].try_into().unwrap());
    let expected = (HEADER as u64)
        .checked_add(payload_len)
        .and_then(|v| v.checked_add(4));
    if expected != Some(data.len() as u64) {
        return Err(CheckpointError::LengthMismatch);
    }
    let payload = &data[HEADER..HEADER + payload_len as usize];
    let crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    if crc32(payload) != crc {
        return Err(CheckpointError::CrcMismatch);
    }

    let mut d = Dec::new(payload);
    let ck = Checkpoint::dec(&mut d)?;
    d.finish()?;
    Ok(ck)
}

// ---------------------------------------------------------------------------
// Trace-log delta blocks
// ---------------------------------------------------------------------------

/// One delta block: bunch count, then the rows (time, one phase per bunch,
/// mean phase, actuation), then the audit events and the jump edges, each
/// run behind a `u32` count.
pub(crate) fn encode_trace_block(
    trace: &LoopTrace,
    rows_from: usize,
    events_from: usize,
    jumps_from: usize,
) -> Vec<u8> {
    let rows_to = trace.times.len();
    let mut e = Enc::default();
    (trace.bunch_phase_deg.len() as u32).enc(&mut e);
    ((rows_to - rows_from) as u32).enc(&mut e);
    for row in rows_from..rows_to {
        trace.times[row].enc(&mut e);
        for series in &trace.bunch_phase_deg {
            series[row].enc(&mut e);
        }
        trace.mean_phase_deg[row].enc(&mut e);
        trace.control_hz[row].enc(&mut e);
    }
    e.run32(&trace.events[events_from..]);
    e.run32(&trace.jump_times[jumps_from..]);
    frame_block(BLOCK_MAGIC, &e.buf)
}

/// Decode the framed delta blocks in a trace-log prefix written for
/// `bunches` bunches. Pass a bunch count already checked against the
/// scenario (the snapshot's, once it matched): a block declaring any other
/// count is rejected, so a hostile count never sizes an allocation. Used
/// by recovery (and directly by the fuzz tests).
pub fn decode_trace_log(bytes: &[u8], bunches: usize) -> R<LoopTrace> {
    let mut out = LoopTrace::empty(bunches);
    let mut pos = 0usize;
    while let Some((payload, next)) = next_frame(bytes, pos, BLOCK_MAGIC)? {
        decode_trace_block(payload, &mut out)?;
        pos = next;
    }
    Ok(out)
}

fn decode_trace_block(payload: &[u8], out: &mut LoopTrace) -> R<()> {
    let mut d = Dec::new(payload);
    let bunches = out.bunch_phase_deg.len();
    if u32::dec(&mut d)? as usize != bunches {
        return Err(CheckpointError::Malformed(
            "block bunch count differs from the snapshot",
        ));
    }
    let n_rows = d.count::<u32>(8 * (bunches + 3))?;
    for _ in 0..n_rows {
        out.times.push(f64::dec(&mut d)?);
        for series in out.bunch_phase_deg.iter_mut() {
            series.push(f64::dec(&mut d)?);
        }
        out.mean_phase_deg.push(f64::dec(&mut d)?);
        out.control_hz.push(f64::dec(&mut d)?);
    }
    out.events.extend(d.run32::<LoopEvent>()?);
    out.jump_times.extend(d.run32::<f64>()?);
    d.finish()
}

// ---------------------------------------------------------------------------
// File-level helpers
// ---------------------------------------------------------------------------

/// Write a snapshot atomically: temp file in the same directory, then
/// rename over the final name. A crash mid-write leaves either the old
/// file set or a stray temp file — never a half-written `ckpt_*.cil`. When
/// `fsync` is set the temp file is synced to stable storage *before* the
/// rename, so the rename can never promote data the disk has not yet seen.
pub fn write_snapshot_file(dir: &Path, ck: &Checkpoint, fsync: bool) -> R<PathBuf> {
    let bytes = encode_snapshot(ck);
    let tmp = dir.join(".ckpt.tmp");
    let path = snapshot_path(dir, ck.turn);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        if fsync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Read and decode one snapshot file.
pub fn read_snapshot_file(path: &Path) -> R<Checkpoint> {
    let bytes = fs::read(path)?;
    decode_snapshot(&bytes)
}

/// Turn indices of the snapshots present in a checkpoint directory,
/// ascending. Files that do not match the `ckpt_<turn>.cil` pattern are
/// ignored.
pub fn snapshot_turns(dir: &Path) -> R<Vec<u64>> {
    let mut turns = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name
            .strip_prefix("ckpt_")
            .and_then(|s| s.strip_suffix(".cil"))
        {
            if let Ok(turn) = stem.parse::<u64>() {
                turns.push(turn);
            }
        }
    }
    turns.sort_unstable();
    Ok(turns)
}

fn snapshot_path(dir: &Path, turn: u64) -> PathBuf {
    dir.join(format!("ckpt_{turn:010}.cil"))
}

// ---------------------------------------------------------------------------
// Checkpoint configuration + live session
// ---------------------------------------------------------------------------

/// Where and how often the harness checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Directory for `trace.log` and the rolling snapshots (created on
    /// first use).
    pub dir: PathBuf,
    /// Snapshot cadence, trace rows. Default 256.
    pub every_turns: usize,
    /// Snapshots retained on disk. Default 2 — keeping at least two means
    /// a corrupted newest snapshot still leaves a good fallback.
    pub keep: usize,
    /// Sync file contents to stable storage before the snapshot rename and
    /// after every WAL append. Default `false`: without fsync a crash of the
    /// *process* (panic, SIGKILL) still leaves a consistent directory because
    /// all writes are atomic-rename or CRC-framed appends, but a crash of the
    /// *machine* may lose recently buffered blocks. Benches keep the default;
    /// chaos tests that assert durability under real kill opt in.
    pub fsync: bool,
}

impl CheckpointConfig {
    /// Default cadence (256 rows) and retention (2 snapshots) in `dir`,
    /// fsync off.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_turns: 256,
            keep: 2,
            fsync: false,
        }
    }

    /// Reject misconfiguration as a typed error instead of silently
    /// clamping: a cadence of 0 rows or a retention of 0 snapshots is
    /// meaningless (the session-level `.max(1)` clamps remain as a last
    /// line of defence for states decoded from disk). Called by every
    /// harness entry point that honours a checkpoint configuration.
    pub fn validate(&self) -> Result<(), crate::error::CilError> {
        if self.every_turns == 0 {
            return Err(crate::error::CilError::InvalidConfig(
                "checkpoint cadence (every_turns) must be >= 1 row".into(),
            ));
        }
        if self.keep == 0 {
            return Err(crate::error::CilError::InvalidConfig(
                "checkpoint retention (keep) must be >= 1 snapshot".into(),
            ));
        }
        Ok(())
    }
}

/// What [`CheckpointSession::resume`] recovered from disk.
pub(crate) struct ResumedState {
    /// The live session, positioned to continue appending.
    pub session: CheckpointSession,
    /// The chosen (newest good) snapshot.
    pub checkpoint: Checkpoint,
    /// Trace prefix covered by the snapshot's cut.
    pub trace: LoopTrace,
    /// Snapshots newer than the chosen one that were rejected as
    /// corrupted/truncated/incompatible-with-their-log.
    pub rejected: usize,
}

/// Live checkpoint writer for one run.
pub(crate) struct CheckpointSession {
    dir: PathBuf,
    every_turns: usize,
    keep: usize,
    fsync: bool,
    log: File,
    log_bytes: u64,
    rows_flushed: usize,
    events_flushed: usize,
    jumps_flushed: usize,
    /// Turns of snapshots currently on disk, ascending.
    snapshots: Vec<u64>,
    /// First write failure; checkpointing is disabled once set and the
    /// error is surfaced after the loop completes.
    pub(crate) error: Option<CheckpointError>,
}

impl CheckpointSession {
    /// Start a fresh session: create the directory, delete stale
    /// snapshots, truncate the trace log.
    pub(crate) fn begin(cfg: &CheckpointConfig) -> R<Self> {
        fs::create_dir_all(&cfg.dir)?;
        for turn in snapshot_turns(&cfg.dir)? {
            let _ = fs::remove_file(snapshot_path(&cfg.dir, turn));
        }
        let _ = fs::remove_file(cfg.dir.join(".ckpt.tmp"));
        let log = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(cfg.dir.join(TRACE_LOG_NAME))?;
        Ok(Self {
            dir: cfg.dir.clone(),
            every_turns: cfg.every_turns.max(1),
            keep: cfg.keep.max(1),
            fsync: cfg.fsync,
            log,
            log_bytes: 0,
            rows_flushed: 0,
            events_flushed: 0,
            jumps_flushed: 0,
            snapshots: Vec::new(),
            error: None,
        })
    }

    /// Recover from the newest usable snapshot in `cfg.dir`.
    ///
    /// Snapshots are tried newest-first. One that fails to decode, or
    /// whose trace-log cut cannot be satisfied (log shorter than the cut,
    /// or the prefix fails CRC / structural validation, or the decoded
    /// prefix disagrees with the snapshot's row/event/jump totals), is
    /// rejected and the next older one is tried. The trace log is then
    /// truncated to the chosen cut, discarding any torn tail.
    ///
    /// `bunches` is the bunch count of the engines the caller resumes. A
    /// decodable snapshot written for another count ends recovery with
    /// [`CheckpointError::Incompatible`] (the directory belongs to another
    /// configuration; falling back would not help), and the log prefix is
    /// only decoded once the snapshot's count has matched.
    pub(crate) fn resume(cfg: &CheckpointConfig, bunches: usize) -> R<ResumedState> {
        let turns = snapshot_turns(&cfg.dir)?;
        if turns.is_empty() {
            return Err(CheckpointError::NoCheckpoint);
        }
        let log_path = cfg.dir.join(TRACE_LOG_NAME);
        let log_all = fs::read(&log_path)?;

        let mut rejected = 0usize;
        let mut chosen: Option<(Checkpoint, LoopTrace)> = None;
        for &turn in turns.iter().rev() {
            match Self::try_load(&cfg.dir, turn, &log_all, bunches) {
                Ok(pair) => {
                    chosen = Some(pair);
                    break;
                }
                Err(e @ CheckpointError::Incompatible(_)) => return Err(e),
                Err(_) => rejected += 1,
            }
        }
        let Some((checkpoint, trace)) = chosen else {
            return Err(CheckpointError::NoCheckpoint);
        };

        // Truncate the log to the chosen cut and position for appending.
        let mut log = OpenOptions::new().write(true).open(&log_path)?;
        log.set_len(checkpoint.log_bytes)?;
        log.seek(SeekFrom::End(0))?;

        // Drop snapshots newer than the chosen one: they are corrupt, and
        // leaving them around would shadow the good one on the next
        // resume.
        let mut kept = Vec::new();
        for &turn in &turns {
            if turn > checkpoint.turn {
                let _ = fs::remove_file(snapshot_path(&cfg.dir, turn));
            } else {
                kept.push(turn);
            }
        }

        let session = Self {
            dir: cfg.dir.clone(),
            every_turns: cfg.every_turns.max(1),
            keep: cfg.keep.max(1),
            fsync: cfg.fsync,
            log,
            log_bytes: checkpoint.log_bytes,
            rows_flushed: checkpoint.rows as usize,
            events_flushed: checkpoint.events as usize,
            jumps_flushed: checkpoint.jumps as usize,
            snapshots: kept,
            error: None,
        };
        Ok(ResumedState {
            session,
            checkpoint,
            trace,
            rejected,
        })
    }

    fn try_load(
        dir: &Path,
        turn: u64,
        log_all: &[u8],
        bunches: usize,
    ) -> R<(Checkpoint, LoopTrace)> {
        let ck = read_snapshot_file(&snapshot_path(dir, turn))?;
        if ck.bunches as usize != bunches {
            return Err(CheckpointError::Incompatible(
                "bunch count differs from the scenario",
            ));
        }
        let cut = usize::try_from(ck.log_bytes).map_err(|_| CheckpointError::LengthMismatch)?;
        if cut > log_all.len() {
            return Err(CheckpointError::LengthMismatch);
        }
        let trace = decode_trace_log(&log_all[..cut], bunches)?;
        if trace.times.len() as u64 != ck.rows
            || trace.events.len() as u64 != ck.events
            || trace.jump_times.len() as u64 != ck.jumps
        {
            return Err(CheckpointError::Malformed(
                "log prefix disagrees with snapshot cut",
            ));
        }
        Ok((ck, trace))
    }

    /// Measured rows the loop may still record, from a trace currently
    /// `rows` long, before a checkpoint falls due. The harness arms its
    /// checkpoint event this many rows ahead, and the event queue's horizon
    /// caps engine step blocks so the event can only fire on a block's last
    /// row — the engine is then exactly at the row being snapshotted.
    /// `usize::MAX` once checkpointing is disabled by a latched error.
    pub(crate) fn rows_until_due(&self, rows: usize) -> usize {
        if self.error.is_some() {
            return usize::MAX;
        }
        let floor = rows.max(self.rows_flushed);
        (floor / self.every_turns + 1) * self.every_turns - rows
    }

    /// Append the trace delta and write `ck` as a rolling snapshot; the
    /// session fills in the log cut and the trace's bunch count. Errors are
    /// latched into `self.error` (checkpointing stops; the loop itself
    /// continues and the error surfaces after the run).
    pub(crate) fn checkpoint(&mut self, trace: &LoopTrace, ck: Checkpoint) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.checkpoint_inner(trace, ck) {
            self.error = Some(e);
        }
    }

    fn checkpoint_inner(&mut self, trace: &LoopTrace, mut ck: Checkpoint) -> R<()> {
        let block = encode_trace_block(
            trace,
            self.rows_flushed,
            self.events_flushed,
            self.jumps_flushed,
        );
        self.log.write_all(&block)?;
        if self.fsync {
            self.log.sync_data()?;
        }
        self.log_bytes += block.len() as u64;
        self.rows_flushed = trace.times.len();
        self.events_flushed = trace.events.len();
        self.jumps_flushed = trace.jump_times.len();

        ck.bunches = trace.bunch_phase_deg.len() as u32;
        ck.turn = self.rows_flushed as u64;
        ck.rows = self.rows_flushed as u64;
        ck.events = self.events_flushed as u64;
        ck.jumps = self.jumps_flushed as u64;
        ck.log_bytes = self.log_bytes;
        write_snapshot_file(&self.dir, &ck, self.fsync)?;
        self.snapshots.push(ck.turn);

        while self.snapshots.len() > self.keep {
            let old = self.snapshots.remove(0);
            let _ = fs::remove_file(snapshot_path(&self.dir, old));
        }
        Ok(())
    }

    /// Surface any latched write failure at the end of the run.
    pub(crate) fn into_result(self) -> R<()> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// SplitMix64 stream behind [`Codec::arbitrary`].
    pub(crate) struct Gen(u64);

    impl Gen {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The codec properties for one value: `dec(enc(x)) == x` with the
    /// re-encoded bytes identical (so `-0.0` counts), no
    /// trailing bytes, every strict prefix of `enc(x)` an error, at least
    /// `MIN_BYTES` bytes, and a `Vec<T>` declaring 2^60 elements rejected
    /// by the length cap, i.e. before any allocation is sized from it.
    pub(crate) fn check_codec<T: Codec + PartialEq + std::fmt::Debug>(x: &T) {
        let mut e = Enc::default();
        x.enc(&mut e);
        let bytes = e.buf;
        let mut d = Dec::new(&bytes);
        let back = T::dec(&mut d).expect("round trip");
        d.finish().expect("decode consumes every byte");
        let mut again = Enc::default();
        back.enc(&mut again);
        assert_eq!(again.buf, bytes, "re-encoded bytes differ");
        assert_eq!(back, *x);
        for cut in 0..bytes.len() {
            assert!(
                T::dec(&mut Dec::new(&bytes[..cut])).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
        assert!(bytes.len() >= T::MIN_BYTES, "{} < MIN_BYTES", bytes.len());
        let mut hostile = (1u64 << 60).to_le_bytes().to_vec();
        hostile.extend_from_slice(&bytes);
        assert!(matches!(
            Vec::<T>::dec(&mut Dec::new(&hostile)),
            Err(CheckpointError::Malformed(
                "collection length exceeds payload"
            ))
        ));
    }

    /// [`check_codec`] over pseudo-random values of `T`.
    pub(crate) fn check_type<T: Codec + PartialEq + std::fmt::Debug>() {
        let mut g = Gen(0xC0DE_C0DE);
        for _ in 0..96 {
            check_codec(&T::arbitrary(&mut g));
        }
    }

    #[test]
    fn every_codec_type_satisfies_the_codec_properties() {
        check_type::<u8>();
        check_type::<u32>();
        check_type::<u64>();
        check_type::<i64>();
        check_type::<f64>();
        check_type::<bool>();
        check_type::<usize>();
        check_type::<i32>();
        check_type::<String>();
        check_type::<Option<u64>>();
        check_type::<Vec<bool>>();
        check_type::<Box<FirState>>();
        check_type::<CavityPlantState>();
        check_type::<TurnStateSnapshot>();
        check_type::<ExecutorState>();
        check_type::<DdsState>();
        check_type::<RingBufferState>();
        check_type::<ZeroCrossingState>();
        check_type::<PeriodDetectorState>();
        check_type::<GaussPulseState>();
        check_type::<FirState>();
        check_type::<PhaseDetectorState>();
        check_type::<SignalBenchState>();
        check_type::<FrameworkState>();
        check_type::<MapEngineState>();
        check_type::<CgraEngineState>();
        check_type::<RefTrackEngineState>();
        check_type::<RampEngineState>();
        check_type::<SignalLevelEngineState>();
        check_type::<ControllerState>();
        check_type::<FaultInjectorState>();
        check_type::<StepCalibration>();
        check_type::<SupervisorState>();
        check_type::<HistogramSnapshot>();
        check_type::<TelemetryCheckpoint>();
        check_type::<Checkpoint>();
        check_type::<EngineKind>();
        check_type::<AdcFault>();
        check_type::<EngineState>();
        check_type::<FaultKind>();
        check_type::<LossCause>();
        check_type::<LoopEvent>();
    }

    /// Every length cap is at least as strict as the literal it replaced.
    #[test]
    fn length_caps_are_no_looser_than_the_old_literals() {
        // (derived bound, old literal) per capped element type.
        let caps = [
            (f64::MIN_BYTES, 8),
            (u64::MIN_BYTES, 8),
            (bool::MIN_BYTES, 1),
            (LoopEvent::MIN_BYTES, 9),
            (GaussPulseState::MIN_BYTES, 8),
            (String::MIN_BYTES, 1),
        ];
        for (derived, literal) in caps {
            assert!(derived >= literal, "{derived} < {literal}");
        }
        // Tag, turn and time of the smallest event variants.
        assert_eq!(LoopEvent::MIN_BYTES, 17);
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            turn: 512,
            time_s: 6.4e-4,
            supervised: true,
            kind: EngineKind::RefTrack {
                particles: 64,
                seed: 9,
            },
            bunches: 2,
            engine: EngineState::RefTrack(RefTrackEngineState {
                dt: vec![1e-9, -2e-9],
                dgamma: vec![1e-6, -1e-6],
                tracker_turn: 512,
                turn: TurnStateSnapshot {
                    time: 6.4e-4,
                    ctrl_phase_rad: 0.25,
                    applied_jump_deg: 8.0,
                    cavity: CavityPlantState {
                        boost: 1.5,
                        phase_rad: 0.01,
                    },
                },
            }),
            controller: ControllerState {
                dc_x1: 0.5,
                dc_y1: -0.25,
                fir: FirState {
                    delay: vec![0.0, 1.0, 2.0],
                    cursor: 1,
                },
                acc: 1.5,
                acc_n: 3,
                last_output: -120.0,
                enabled: true,
                gain_scale: 1.25,
            },
            injector: FaultInjectorState {
                rng: 0xDEAD_BEEF,
                activated: vec![true, false],
                corrupted_rows: 7,
            },
            supervisor: Some(SupervisorState {
                rng: 42,
                last_good: Some(1.25),
                bad_streak: 2,
                calibration: Some(StepCalibration {
                    kind: EngineKind::Cgra,
                    step_seconds: 3.2e-6,
                }),
                boost: 1.5,
                gain_scale: 1.0,
                sag_latched: true,
            }),
            ctrl_phase_rad: 0.25,
            last_jump_deg: 8.0,
            rows: 512,
            events: 3,
            jumps: 1,
            log_bytes: 9000,
            telemetry: Some(TelemetryCheckpoint {
                idle_steps: 11,
                step_modeled: HistogramSnapshot {
                    buckets: vec![0; crate::telemetry::HISTOGRAM_BUCKETS],
                    count: 0,
                    sum: 0.0,
                },
                deadline_headroom: HistogramSnapshot {
                    buckets: vec![1; crate::telemetry::HISTOGRAM_BUCKETS],
                    count: 64,
                    sum: 0.125,
                },
            }),
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let ck = sample_checkpoint();
        let bytes = encode_snapshot(&ck);
        let back = decode_snapshot(&bytes).expect("roundtrip");
        assert_eq!(back, ck);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let bytes = encode_snapshot(&sample_checkpoint());
        for cut in [0, 7, 19, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::TooShort | CheckpointError::LengthMismatch
                ),
                "cut {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_crc() {
        let mut bytes = encode_snapshot(&sample_checkpoint());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&bytes).unwrap_err(),
            CheckpointError::CrcMismatch
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = encode_snapshot(&sample_checkpoint());
        bytes[8] = 0xFE;
        assert!(matches!(
            decode_snapshot(&bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn trace_block_roundtrips() {
        let trace = LoopTrace {
            times: vec![0.0, 1.0, 2.0],
            bunch_phase_deg: vec![vec![0.1, 0.2, 0.3], vec![-0.1, -0.2, -0.3]],
            mean_phase_deg: vec![0.0, 0.0, 0.0],
            control_hz: vec![5.0, -5.0, 0.0],
            jump_times: vec![0.5],
            events: vec![LoopEvent::RowCorrupted {
                turn: 1,
                time_s: 1.0,
            }],
            outcome: crate::fault::LoopOutcome::Survived,
        };
        let mut log = encode_trace_block(&trace, 0, 0, 0);
        // Second delta: nothing new — an empty block must decode cleanly.
        log.extend_from_slice(&encode_trace_block(&trace, 3, 1, 1));
        let back = decode_trace_log(&log, 2).expect("decode");
        assert_eq!(back.times, trace.times);
        assert_eq!(back.bunch_phase_deg, trace.bunch_phase_deg);
        assert_eq!(back.events, trace.events);
        assert_eq!(back.jump_times, trace.jump_times);
    }

    /// FNV-1a 64 of a byte string.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    fn turn_state(t: f64) -> TurnStateSnapshot {
        TurnStateSnapshot {
            time: t,
            ctrl_phase_rad: -0.125,
            applied_jump_deg: 8.0,
            cavity: CavityPlantState {
                boost: 1.5,
                phase_rad: -0.0,
            },
        }
    }

    fn zcd(some: bool) -> ZeroCrossingState {
        ZeroCrossingState {
            last_sample: -0.5,
            sample_index: 4096,
            last_crossing: some.then_some(4000),
            last_crossing_frac: 0.375,
            armed: some,
            crossings_seen: 17,
        }
    }

    fn dds(acc: u64, dropout: bool) -> DdsState {
        DdsState {
            acc,
            increment: 0x0123_4567_89AB_CDEF,
            amplitude: 0.75,
            dropout,
        }
    }

    /// A signal-level engine state; `some` toggles every `Option` field.
    fn signal_state(adc_fault: Option<AdcFault>, some: bool) -> EngineState {
        let ring = |k: f64| RingBufferState {
            data: vec![k, -k, f64::INFINITY],
            head: 2,
            written: 1 << 40,
        };
        EngineState::SignalLevel(Box::new(SignalLevelEngineState {
            bench: SignalBenchState {
                reference: dds(7, false),
                gap: dds(u64::MAX, true),
                sample: 123_456,
                applied_jump_deg: -8.0,
                ctrl_freq_offset: 12.5,
                cavity_scale: 0.875,
                cavity_detune_hz: -3.0,
            },
            fw: FrameworkState {
                executor: ExecutorState {
                    regs: vec![1.0, 2.0, -3.0],
                    iterations: 99,
                },
                ref_buffer: ring(0.5),
                gap_buffer: ring(-0.25),
                period: PeriodDetectorState {
                    zcd: zcd(some),
                    history: vec![250.0, 250.5],
                    cursor: 1,
                    filled: 2,
                    last_crossing: some.then_some(3999.5),
                },
                pulses: vec![
                    GaussPulseState {
                        playing: some.then_some(3),
                        armed_at: vec![10, 20],
                        now: 30,
                        amplitude: 0.5,
                    },
                    GaussPulseState {
                        playing: None,
                        armed_at: Vec::new(),
                        now: 31,
                        amplitude: -0.5,
                    },
                ],
                sample: 123_450,
                last_crossing_sample: some.then_some(123_000),
                prev_crossing_sample: some.then_some(122_750),
                last_dt: vec![1e-9],
                monitor_value: 0.0625,
                warmed_up: true,
                recording: some,
                revolutions: 480,
                adc_rng: 0xFEED_F00D,
                adc_fault,
            },
            detector: PhaseDetectorState {
                zcd: zcd(!some),
                period_samples: 250.25,
                in_pulse: some,
                acc_weight: 3.5,
                acc_moment: -1.25,
                pulse_start: 122_990,
                sample_index: 123_456,
                last_ref_crossing: some.then_some(122_999.5),
                dropped: 2,
                resync: !some,
                suppress_pulse: some,
            },
            period_samples: 250.0,
            sample: 123_456,
            period_admitted: 470,
            period_rejected: 3,
            cavity: CavityPlantState {
                boost: 2.0,
                phase_rad: 0.5,
            },
        }))
    }

    /// Checkpoints covering every `EngineState` variant, every `AdcFault`,
    /// `None`/`Some` for each `Option` field and a `RefTrack` calibration.
    fn golden_checkpoints() -> Vec<(&'static str, Checkpoint)> {
        let reftrack = EngineKind::RefTrack {
            particles: 64,
            seed: 9,
        };
        let supervisor = |calibration: Option<StepCalibration>| SupervisorState {
            rng: 42,
            last_good: calibration.map(|_| 1.25),
            bad_streak: 2,
            calibration,
            boost: 1.5,
            gain_scale: 0.5,
            sag_latched: calibration.is_some(),
        };
        let telemetry = TelemetryCheckpoint {
            idle_steps: 11,
            step_modeled: HistogramSnapshot {
                buckets: vec![0, 1, 2],
                count: 3,
                sum: 0.5,
            },
            deadline_headroom: HistogramSnapshot {
                buckets: Vec::new(),
                count: 0,
                sum: -0.0,
            },
        };
        let base = |kind, engine| Checkpoint {
            turn: 512,
            time_s: 6.4e-4,
            supervised: false,
            kind,
            bunches: 2,
            engine,
            controller: ControllerState {
                dc_x1: 0.5,
                dc_y1: -0.25,
                fir: FirState {
                    delay: vec![0.0, 1.0, 2.0],
                    cursor: 1,
                },
                acc: 1.5,
                acc_n: 3,
                last_output: -120.0,
                enabled: true,
                gain_scale: 1.25,
            },
            injector: FaultInjectorState {
                rng: 0xDEAD_BEEF,
                activated: vec![true, false, true],
                corrupted_rows: 7,
            },
            supervisor: None,
            ctrl_phase_rad: 0.25,
            last_jump_deg: 8.0,
            rows: 512,
            events: 3,
            jumps: 1,
            log_bytes: 9000,
            telemetry: None,
        };
        let map = base(
            EngineKind::Map,
            EngineState::Map(MapEngineState {
                gamma_r: 1.3,
                dgamma: -2e-5,
                dt: 3e-9,
                turn: turn_state(1e-3),
            }),
        );
        let mut cgra = base(
            EngineKind::Cgra,
            EngineState::Cgra(CgraEngineState {
                executor: ExecutorState {
                    regs: vec![0.5, -1.5, f64::NEG_INFINITY],
                    iterations: 1 << 33,
                },
                gap_phase_rad: 0.75,
                gap_dropout: true,
                dt_out: vec![1e-9, 2e-9],
                turn: turn_state(2e-3),
            }),
        );
        cgra.supervised = true;
        cgra.supervisor = Some(supervisor(None));
        cgra.telemetry = Some(telemetry.clone());
        let mut reftrack_ck = base(
            reftrack,
            EngineState::RefTrack(RefTrackEngineState {
                dt: vec![1e-9, -2e-9],
                dgamma: vec![1e-6, -1e-6],
                tracker_turn: 512,
                turn: turn_state(3e-3),
            }),
        );
        reftrack_ck.supervised = true;
        reftrack_ck.supervisor = Some(supervisor(Some(StepCalibration {
            kind: reftrack,
            step_seconds: 3.2e-6,
        })));
        let mut ramp = base(
            EngineKind::Map,
            EngineState::Ramp(RampEngineState {
                gamma_r: 1.1,
                dgamma: 1e-5,
                dt: -1e-9,
                time: 0.25,
                tracker_turn: 200_000,
                ctrl_phase_rad: 0.125,
                applied_jump_deg: 0.0,
                last_f_rev: 8e5,
                last_gamma_r: 1.09,
                last_phi_s_deg: 30.0,
            }),
        );
        ramp.telemetry = Some(telemetry.clone());
        let signal = |fault, some: bool| {
            let mut ck = base(EngineKind::Map, signal_state(fault, some));
            ck.bunches = 1;
            if some {
                ck.supervised = true;
                ck.supervisor = Some(supervisor(Some(StepCalibration {
                    kind: EngineKind::Cgra,
                    step_seconds: 1e-5,
                })));
                ck.telemetry = Some(telemetry.clone());
            }
            ck
        };
        vec![
            ("map", map),
            ("cgra", cgra),
            ("reftrack", reftrack_ck),
            ("ramp", ramp),
            ("signal_clean", signal(None, false)),
            ("signal_saturated", signal(Some(AdcFault::Saturated), true)),
            (
                "signal_stuck",
                signal(Some(AdcFault::StuckCode(-8192)), false),
            ),
            ("signal_bitflip", signal(Some(AdcFault::BitFlip(13)), true)),
        ]
    }

    /// A trace holding every `LoopEvent`, `FaultKind` and `LossCause`.
    fn golden_trace() -> LoopTrace {
        let kinds = [
            FaultKind::AdcSaturation,
            FaultKind::AdcStuckCode { code: -7 },
            FaultKind::AdcBitFlip { bit: 12 },
            FaultKind::DdsDropout,
            FaultKind::DetectorOutlier {
                probability: 0.25,
                amplitude_deg: 30.0,
            },
            FaultKind::NanBurst { probability: 0.5 },
            FaultKind::BeamLoss,
            FaultKind::DeadlineOverrun { factor: 3.0 },
            FaultKind::CavityDetune {
                drift_hz_per_s: -40.0,
            },
            FaultKind::CavityQuench { collapse_s: 0.05 },
            FaultKind::CavityTrip { recover_s: 0.125 },
        ];
        let causes = [
            LossCause::Injected,
            LossCause::NonFinitePhase,
            LossCause::BucketOverdemand,
            LossCause::OutOfBucket,
            LossCause::Watchdog,
            LossCause::CavityFault,
        ];
        let mut events: Vec<LoopEvent> = kinds
            .iter()
            .enumerate()
            .map(|(turn, &kind)| LoopEvent::FaultActive {
                turn,
                time_s: turn as f64 * 1e-6,
                kind,
            })
            .collect();
        events.extend(causes.iter().map(|&cause| LoopEvent::BeamLost {
            turn: 20,
            time_s: 2e-5,
            cause,
        }));
        events.extend([
            LoopEvent::RowCorrupted {
                turn: 30,
                time_s: 3e-5,
            },
            LoopEvent::OutlierRejected {
                turn: 31,
                time_s: 3.1e-5,
                measured_deg: 90.0,
                held_deg: 1.5,
            },
            LoopEvent::ActuationClamped {
                turn: 32,
                time_s: 3.2e-5,
                raw_hz: 5000.0,
                limit_hz: 2000.0,
            },
            LoopEvent::DeadlineOverrun {
                turn: 33,
                time_s: 3.3e-5,
                budget_s: 1e-6,
                modeled_s: 3e-6,
            },
            LoopEvent::EngineDemoted {
                turn: 34,
                time_s: 3.4e-5,
                from: EngineKind::RefTrack {
                    particles: 32768,
                    seed: 5,
                },
                to: EngineKind::Cgra,
            },
            LoopEvent::EngineDemoted {
                turn: 35,
                time_s: 3.5e-5,
                from: EngineKind::Cgra,
                to: EngineKind::Map,
            },
            LoopEvent::CheckpointRejected {
                turn: 36,
                time_s: 3.6e-5,
            },
            LoopEvent::CavitySagDetected {
                turn: 37,
                time_s: 3.7e-5,
                voltage_scale: 0.6,
            },
            LoopEvent::CompensationEngaged {
                turn: 38,
                time_s: 3.8e-5,
                boost: 1.5,
                gain_scale: 2.0,
            },
        ]);
        LoopTrace {
            times: vec![0.0, 1e-6, 2e-6],
            bunch_phase_deg: vec![vec![0.1, 0.2, 0.3], vec![-0.1, -0.2, f64::NAN]],
            mean_phase_deg: vec![0.0, 0.0, -0.0],
            control_hz: vec![5.0, -5.0, 0.0],
            jump_times: vec![0.5e-6, 1.5e-6],
            events,
            outcome: crate::fault::LoopOutcome::Survived,
        }
    }

    /// The snapshot and trace-block bytes are pinned: the digests were
    /// computed before the per-type codecs were folded into one `Codec`
    /// declaration per type, and any change to them is a format change
    /// that must bump `SNAPSHOT_VERSION`.
    #[test]
    fn golden_wire_bytes_are_pinned() {
        let want: [(&str, u64); 8] = [
            ("map", 0xF1172503CFF27A49),
            ("cgra", 0x3DB607A1FC9923E1),
            ("reftrack", 0xC2E5C0EAB0B138C8),
            ("ramp", 0x703F64AC197530E3),
            ("signal_clean", 0xC4D4E0DEF64B96CD),
            ("signal_saturated", 0x9469CF71E74CA0A9),
            ("signal_stuck", 0xAF64A150D57EE62E),
            ("signal_bitflip", 0xF52A77450EDA4049),
        ];
        let got: Vec<(&str, u64)> = golden_checkpoints()
            .into_iter()
            .map(|(name, ck)| {
                let bytes = encode_snapshot(&ck);
                assert_eq!(decode_snapshot(&bytes).unwrap(), ck, "{name} round trip");
                (name, fnv1a(&bytes))
            })
            .collect();
        let trace = golden_trace();
        let block = encode_trace_block(&trace, 0, 0, 0);
        let back = decode_trace_log(&block, 2).unwrap();
        assert_eq!(back.events, trace.events);
        assert_eq!(
            (got, fnv1a(&block), SNAPSHOT_VERSION),
            (want.to_vec(), 0xB818C444C4981613, 2),
            "wire bytes changed"
        );
    }
}
