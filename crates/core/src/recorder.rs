//! Binary trace format for DRAM recordings.
//!
//! "[The SpartanMC] allows to record the simulation into the DRAM memory of
//! the FPGA board, which can be read out from a computer via the serial
//! port" (Section III-B). This module defines that wire format: a compact
//! little-endian stream of [`RevolutionRecord`]s with a magic header and a
//! length-checked layout, written and read with the same [`Codec`]
//! primitives as every other persisted layout (`crate::checkpoint`).

use crate::checkpoint::{Codec, Dec, Enc};
use crate::error::CilError;
use crate::framework::RevolutionRecord;

/// Magic bytes identifying a recording stream ("CIL" + version 1).
pub const MAGIC: [u8; 4] = *b"CIL\x01";

/// Bytes before the first record: magic, bunch count, record count.
const HEADER_BYTES: usize = 16;

/// Encode a recording into the serial wire format.
///
/// Layout: magic, bunch count (u32), record count (u64), then per record:
/// crossing sample (u64), period seconds (f64), Δt per bunch (f64 × B).
/// All records must have the same bunch count — a mixed recording is a
/// [`CilError::Recording`] error, not a panic: the recorder sits on the
/// run path, and a malformed capture must surface as a value the caller
/// (or a supervisor) can react to.
pub fn encode(records: &[RevolutionRecord]) -> crate::error::Result<Vec<u8>> {
    let bunches = records.first().map_or(0, |r| r.dt.len());
    let mut e = Enc {
        buf: Vec::with_capacity(HEADER_BYTES + records.len() * (16 + 8 * bunches)),
    };
    e.buf.extend_from_slice(&MAGIC);
    (bunches as u32).enc(&mut e);
    (records.len() as u64).enc(&mut e);
    for (i, r) in records.iter().enumerate() {
        if r.dt.len() != bunches {
            return Err(CilError::Recording(format!(
                "record {i} has {} bunches, stream declared {bunches}",
                r.dt.len()
            )));
        }
        r.crossing_sample.enc(&mut e);
        r.period_s.enc(&mut e);
        for dt in &r.dt {
            dt.enc(&mut e);
        }
    }
    Ok(e.buf)
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Stream does not start with the magic bytes.
    BadMagic,
    /// Stream ended before the declared record count was read.
    Truncated,
    /// Declared sizes are implausible (corrupt header).
    Corrupt,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a CIL recording (bad magic)"),
            Self::Truncated => write!(f, "recording truncated"),
            Self::Corrupt => write!(f, "corrupt recording header"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode a recording stream. Bytes after the last declared record are
/// ignored.
///
/// A record count whose records cannot fit in the bytes that follow is
/// [`DecodeError::Truncated`], checked before anything is allocated.
pub fn decode(data: &[u8]) -> Result<Vec<RevolutionRecord>, DecodeError> {
    if data.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    if data[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut d = Dec::new(&data[MAGIC.len()..]);
    // The header is in bounds, so only the record-count cap can fail, and
    // after it no record read can.
    let truncated = |_| DecodeError::Truncated;
    let bunches = u32::dec(&mut d).map_err(truncated)? as usize;
    if bunches > 1 << 16 {
        return Err(DecodeError::Corrupt);
    }
    let count = d.count::<u64>(16 + 8 * bunches).map_err(truncated)?;
    (0..count)
        .map(|_| {
            Ok(RevolutionRecord {
                crossing_sample: u64::dec(&mut d)?,
                period_s: f64::dec(&mut d)?,
                dt: (0..bunches)
                    .map(|_| f64::dec(&mut d))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<_, _>>()
        .map_err(truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, bunches: usize) -> Vec<RevolutionRecord> {
        (0..n)
            .map(|i| RevolutionRecord {
                crossing_sample: i as u64 * 312,
                period_s: 1.25e-6 + i as f64 * 1e-12,
                dt: (0..bunches).map(|b| (i * b) as f64 * 1e-9).collect(),
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let records = sample(100, 4);
        let encoded = encode(&records).unwrap();
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn empty_recording_roundtrips() {
        let decoded = decode(&encode(&[]).unwrap()).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn detects_bad_magic() {
        let mut data = encode(&sample(3, 1)).unwrap();
        data[0] = b'X';
        assert_eq!(decode(&data), Err(DecodeError::BadMagic));
    }

    #[test]
    fn detects_truncation() {
        let data = encode(&sample(10, 2)).unwrap();
        for len in 0..data.len() {
            assert_eq!(
                decode(&data[..len]),
                Err(DecodeError::Truncated),
                "prefix {len}"
            );
        }
    }

    #[test]
    fn hostile_record_count_fails_before_allocating() {
        let mut data = encode(&sample(2, 1)).unwrap();
        data[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&data), Err(DecodeError::Truncated));
    }

    #[test]
    fn detects_corrupt_header() {
        let mut data = encode(&sample(1, 1)).unwrap();
        // Blow up the bunch count field.
        data[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&data), Err(DecodeError::Corrupt));
    }

    #[test]
    fn inconsistent_bunch_count_is_a_typed_error() {
        let mut records = sample(3, 2);
        records[1].dt.push(0.0);
        let err = encode(&records).expect_err("mixed bunch counts must be rejected");
        assert!(matches!(err, CilError::Recording(_)));
        assert!(err.to_string().contains("record 1"));
    }

    /// The wire bytes are pinned: FNV-1a digests of recordings with 0, 1, 2
    /// and 4 bunches, including an empty one. A change here changes what
    /// every existing capture decodes to.
    #[test]
    fn golden_bytes_are_pinned() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let got: Vec<(usize, usize, u64)> = [(0, 0), (5, 0), (7, 1), (3, 2), (11, 4)]
            .iter()
            .map(|&(n, b)| (n, b, fnv1a(&encode(&sample(n, b)).unwrap())))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 0x7364_a31e_a962_0962),
                (5, 0, 0xd2a1_3f42_c1d0_75d7),
                (7, 1, 0x4890_4781_c226_b6fd),
                (3, 2, 0x48a7_0948_ac61_3039),
                (11, 4, 0x10bd_a530_5501_dabd),
            ],
            "{got:#x?}"
        );
    }

    #[test]
    fn size_is_compact() {
        // 0.4 s at 800 kHz with 4 bunches: 320k records x 48 B ≈ 15 MB —
        // fits the board DRAM with plenty of headroom.
        let records = sample(1000, 4);
        let encoded = encode(&records).unwrap();
        assert_eq!(encoded.len(), 16 + 1000 * (16 + 32));
    }
}
