//! Binary wire format for QUB tensor streams — the artifact a host would
//! ship to a QUA-equipped device.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  "QUB1"          4 bytes
//! bits   u8              QUB width b (2..=8)
//! fine   u8              fine FC register
//! coarse u8              coarse FC register
//! pad    u8              reserved, zero
//! delta  f32             base scale Δ
//! rank   u32             number of dimensions
//! dims   u64 × rank      shape
//! data   u8 × ∏dims      QUB payload bytes
//! ```
//!
//! The header carries exactly the sideband the paper's Fig. 5 defines: the
//! two FC registers plus the base scale; [`crate::qub::params_from_fc`]
//! reconstructs the full quantizer from it.
//!
//! Records are written to any [`Write`] and parsed straight from a byte
//! slice — the store hands over a chunk's verified bytes, so parsing is
//! header reads, one length check against the slice, one copy of the
//! payload and one max over it for the `< 2^b` range check.

use crate::qub::{params_from_fc, FcRegisters, QubTensor};
use std::fmt;
use std::io::Write;

/// Magic prefix of the format.
pub const MAGIC: [u8; 4] = *b"QUB1";

/// Default payload bound of [`read_qub_tensor`]: 16 GiB, far above any
/// model in this repo but small enough to refuse absurd headers. Callers
/// that know the true payload size (e.g. a chunk length from a checksummed
/// manifest) should pass it to [`read_qub_tensor_bounded`] instead.
pub const MAX_PAYLOAD_BYTES: u64 = 1 << 34;

/// Errors of the QUB wire format.
#[derive(Debug)]
pub enum WireError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the byte stream.
    Format(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Format(m) => write!(f, "malformed QUB stream: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Serializes a QUB tensor. A `&mut` reference may be passed as the writer.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_qub_tensor<W: Write>(mut w: W, t: &QubTensor) -> Result<(), WireError> {
    w.write_all(&MAGIC)?;
    w.write_all(&[t.bits as u8, t.fc.fine, t.fc.coarse, 0])?;
    w.write_all(&t.base_delta.to_le_bytes())?;
    w.write_all(&(t.shape.len() as u32).to_le_bytes())?;
    for &d in &t.shape {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    w.write_all(&t.bytes)?;
    Ok(())
}

/// Parses a QUB tensor from the front of `bytes` with the default
/// [`MAX_PAYLOAD_BYTES`] bound. Bytes after the record are ignored.
///
/// # Errors
///
/// Returns [`WireError::Format`] for bad magic, widths outside `2..=8`,
/// non-positive scales, FC registers that do not describe a valid
/// quantizer, or payload bytes outside the `b`-bit range; a record cut
/// short by the end of `bytes` is [`WireError::Io`] with
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_qub_tensor(bytes: &[u8]) -> Result<QubTensor, WireError> {
    read_qub_tensor_bounded(bytes, MAX_PAYLOAD_BYTES)
}

/// Parses a QUB tensor whose payload may not exceed `max_payload_bytes`.
/// Callers that already know the record's true size — the store passes
/// its manifest chunk length — get headers rejected before anything is
/// allocated. The declared payload is checked against the bytes actually
/// there before it is copied, so a header that claims more than the slice
/// holds costs no allocation either; the payload is then copied once and
/// range-checked with one max over it.
///
/// # Errors
///
/// As [`read_qub_tensor`], plus [`WireError::Format`] when the header
/// declares more payload bytes than `max_payload_bytes`.
pub fn read_qub_tensor_bounded(
    bytes: &[u8],
    max_payload_bytes: u64,
) -> Result<QubTensor, WireError> {
    let mut rest = bytes;
    let magic = take::<4>(&mut rest)?;
    if magic != MAGIC {
        return Err(WireError::Format(format!("bad magic {magic:02x?}")));
    }
    let head = take::<4>(&mut rest)?;
    let bits = head[0] as u32;
    if !(2..=8).contains(&bits) {
        return Err(WireError::Format(format!("unsupported bit-width {bits}")));
    }
    let fc = FcRegisters {
        fine: head[1],
        coarse: head[2],
    };
    let base_delta = f32::from_le_bytes(take(&mut rest)?);
    if !(base_delta.is_finite() && base_delta > 0.0) {
        return Err(WireError::Format(format!(
            "invalid base scale {base_delta}"
        )));
    }
    // Validate that the sideband describes a real quantizer.
    params_from_fc(bits, fc, base_delta)
        .map_err(|e| WireError::Format(format!("invalid FC registers: {e}")))?;
    let rank = u32::from_le_bytes(take(&mut rest)?) as usize;
    if rank > 8 {
        return Err(WireError::Format(format!("implausible rank {rank}")));
    }
    let mut shape = Vec::with_capacity(rank);
    let mut len: u128 = 1;
    for _ in 0..rank {
        let d = u64::from_le_bytes(take(&mut rest)?);
        len = len.saturating_mul(d as u128);
        shape.push(d as usize);
    }
    if len > u128::from(max_payload_bytes) {
        return Err(WireError::Format(format!(
            "payload of {len} bytes exceeds the caller's bound of {max_payload_bytes}"
        )));
    }
    if len > rest.len() as u128 {
        return Err(truncated());
    }
    let payload = rest[..len as usize].to_vec();
    let max = payload.iter().copied().max().unwrap_or(0);
    if u16::from(max) >= 1 << bits {
        return Err(WireError::Format(format!(
            "payload byte {max:#04x} exceeds {bits}-bit QUB range"
        )));
    }
    Ok(QubTensor::new(payload, shape, fc, bits, base_delta))
}

/// Splits the next `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, tail) = rest.split_first_chunk::<N>().ok_or_else(truncated)?;
    *rest = tail;
    Ok(*head)
}

/// A record cut short: the error a stream that ran dry would give.
fn truncated() -> WireError {
    WireError::Io(std::io::ErrorKind::UnexpectedEof.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qub::QubCodec;
    use crate::relax::Pra;
    use quq_tensor::rng::OutlierMixture;
    use quq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_tensor(bits: u32) -> QubTensor {
        let mut rng = StdRng::seed_from_u64(17);
        let vals = OutlierMixture::new(0.04, 0.5, 0.02).sample_vec(&mut rng, 96);
        let params = Pra::with_defaults(bits).run(&vals).params;
        QubCodec::new(params).encode_tensor(&Tensor::from_vec(vals, &[8, 12]).unwrap())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for bits in [4u32, 6, 8] {
            let t = sample_tensor(bits);
            let mut buf = Vec::new();
            write_qub_tensor(&mut buf, &t).unwrap();
            let back = read_qub_tensor(buf.as_slice()).unwrap();
            assert_eq!(back, t);
            // And the decoded values match too.
            assert_eq!(back.dequantize(), t.dequantize());
        }
    }

    #[test]
    fn params_survive_the_wire_via_fc_registers() {
        let t = sample_tensor(8);
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &t).unwrap();
        let back = read_qub_tensor(buf.as_slice()).unwrap();
        let params = params_from_fc(back.bits, back.fc, back.base_delta).unwrap();
        // Reconstructed parameters dequantize every byte identically.
        let codec = QubCodec::new(params);
        for &b in &back.bytes {
            let via_params = codec.dequantize(b);
            let via_stream =
                crate::qub::decode_qub(b, back.fc, back.bits).scaled() as f32 * back.base_delta;
            assert!((via_params - via_stream).abs() < 1e-6);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6)).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_qub_tensor(buf.as_slice()),
            Err(WireError::Format(_))
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_qub_tensor(buf.as_slice()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn out_of_range_payload_is_rejected() {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6)).unwrap();
        let last = buf.len() - 1;
        buf[last] = 0xFF; // 6-bit QUBs must stay below 64
        let err = read_qub_tensor(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6)).unwrap();
        // Overwrite delta with NaN.
        buf[8..12].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(matches!(
            read_qub_tensor(buf.as_slice()),
            Err(WireError::Format(_))
        ));
    }

    #[test]
    fn caller_byte_limit_bounds_the_payload() {
        let t = sample_tensor(6);
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &t).unwrap();
        let n = t.bytes.len() as u64;
        // The exact payload size passes; one byte less rejects the header
        // before any payload is copied.
        assert_eq!(read_qub_tensor_bounded(buf.as_slice(), n).unwrap(), t);
        let err = read_qub_tensor_bounded(buf.as_slice(), n - 1).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the caller's bound"),
            "{err}"
        );
    }

    #[test]
    fn huge_declared_payload_errors_without_a_huge_allocation() {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6)).unwrap();
        // Rewrite the dims (rank 2 at offsets 16..32) to declare 2^33 × 1
        // elements, keeping the original (tiny) payload behind them.
        buf[16..24].copy_from_slice(&(1u64 << 33).to_le_bytes());
        buf[24..32].copy_from_slice(&1u64.to_le_bytes());
        // A caller-supplied bound rejects in the header.
        assert!(matches!(
            read_qub_tensor_bounded(buf.as_slice(), 1 << 20),
            Err(WireError::Format(_))
        ));
        // Even the permissive default cannot be driven to a 8 GiB
        // allocation: the declared length is checked against the bytes
        // actually there first.
        assert!(matches!(
            read_qub_tensor(buf.as_slice()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn implausible_rank_is_rejected() {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6)).unwrap();
        buf[12..16].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            read_qub_tensor(buf.as_slice()),
            Err(WireError::Format(_))
        ));
    }
}
