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
//! Records are appended to a byte vector and parsed straight from a byte
//! slice through the checked [`ByteReader`] — the store hands over a
//! chunk's verified bytes, so parsing is header reads, one length check
//! against the slice, one copy of the payload and one max over it for the
//! `< 2^b` range check.

use crate::bytes::{ByteError, ByteReader};
use crate::qub::{params_from_fc, FcRegisters, QubTensor};

/// Magic prefix of the format.
pub const MAGIC: [u8; 4] = *b"QUB1";

/// Default payload bound of [`read_qub_tensor`]: 16 GiB, far above any
/// model in this repo but small enough to refuse absurd headers. Callers
/// that know the true payload size (e.g. a chunk length from a checksummed
/// manifest) should pass it to [`read_qub_tensor_bounded`] instead.
pub const MAX_PAYLOAD_BYTES: u64 = 1 << 34;

/// The largest rank a record may declare.
const MAX_RANK: u64 = 8;

/// Appends a QUB tensor record to `out`.
pub fn write_qub_tensor(out: &mut Vec<u8>, t: &QubTensor) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[t.bits as u8, t.fc.fine, t.fc.coarse, 0]);
    out.extend_from_slice(&t.base_delta.to_le_bytes());
    out.extend_from_slice(&(t.shape.len() as u32).to_le_bytes());
    for &d in &t.shape {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&t.bytes);
}

/// Parses a QUB tensor record, which must fill `bytes` exactly, with the
/// default [`MAX_PAYLOAD_BYTES`] bound.
///
/// # Errors
///
/// A [`ByteError`] naming the field at fault: bad magic, widths outside
/// `2..=8`, non-positive scales, FC registers that do not describe a valid
/// quantizer and payload bytes outside the `b`-bit range are
/// [`Invalid`](crate::bytes::ByteErrorKind::Invalid); a rank past 8 is
/// [`OverCap`](crate::bytes::ByteErrorKind::OverCap); a record cut short
/// by the end of `bytes` is
/// [`Truncated`](crate::bytes::ByteErrorKind::Truncated); bytes after it
/// are [`Trailing`](crate::bytes::ByteErrorKind::Trailing).
pub fn read_qub_tensor(bytes: &[u8]) -> Result<QubTensor, ByteError> {
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
/// As [`read_qub_tensor`], plus
/// [`OverCap`](crate::bytes::ByteErrorKind::OverCap) when the header
/// declares more payload bytes than `max_payload_bytes`, and
/// [`Overflow`](crate::bytes::ByteErrorKind::Overflow) when its element
/// count overflows `u64`.
pub fn read_qub_tensor_bounded(
    bytes: &[u8],
    max_payload_bytes: u64,
) -> Result<QubTensor, ByteError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32("QUB magic")?;
    if magic != u32::from_le_bytes(MAGIC) {
        return Err(r.invalid("QUB magic", magic.into()));
    }
    let bits = u32::from(r.u8("bit-width")?);
    if !(2..=8).contains(&bits) {
        return Err(r.invalid("bit-width", bits.into()));
    }
    let fc = FcRegisters {
        fine: r.u8("fine FC register")?,
        coarse: r.u8("coarse FC register")?,
    };
    r.u8("pad")?;
    let base_delta = r.f32("base scale")?;
    if !(base_delta.is_finite() && base_delta > 0.0) {
        return Err(r.invalid("base scale", base_delta.to_bits().into()));
    }
    // Validate that the sideband describes a real quantizer.
    if params_from_fc(bits, fc, base_delta).is_err() {
        let registers = u16::from_le_bytes([fc.fine, fc.coarse]);
        return Err(r.invalid("FC registers", registers.into()));
    }
    let rank = u64::from(r.u32("rank")?);
    if rank > MAX_RANK {
        return Err(r.over_cap("rank", rank, MAX_RANK));
    }
    let mut shape = Vec::with_capacity(rank as usize);
    let mut len = 1u64;
    for _ in 0..rank {
        let d = r.u64("dim")?;
        len = len
            .checked_mul(d)
            .ok_or_else(|| r.overflow("element count"))?;
        shape.push(d as usize);
    }
    if len > max_payload_bytes {
        return Err(r.over_cap("QUB payload", len, max_payload_bytes));
    }
    // A length past the address space is past the slice too.
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let payload = r.bytes("QUB payload", len)?.to_vec();
    let max = payload.iter().copied().max().unwrap_or(0);
    if u16::from(max) >= 1 << bits {
        return Err(r.invalid("QUB payload", max.into()));
    }
    r.finish()?;
    Ok(QubTensor::new(payload, shape, fc, bits, base_delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::ByteErrorKind;
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
            write_qub_tensor(&mut buf, &t);
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
        write_qub_tensor(&mut buf, &t);
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

    /// A saved 6-bit `[8, 12]` record: a 32-byte header, then 96 bytes.
    fn record() -> Vec<u8> {
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &sample_tensor(6));
        buf
    }

    fn error(bytes: &[u8]) -> (&'static str, ByteErrorKind) {
        let e = read_qub_tensor(bytes).unwrap_err();
        (e.field, e.kind)
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = record();
        buf[0] = b'X';
        let value = u32::from_le_bytes(*b"XUB1").into();
        assert_eq!(error(&buf), ("QUB magic", ByteErrorKind::Invalid { value }));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut buf = record();
        buf.truncate(buf.len() - 3);
        let kind = ByteErrorKind::Truncated {
            needed: 96,
            available: 93,
        };
        assert_eq!(error(&buf), ("QUB payload", kind));
    }

    #[test]
    fn out_of_range_payload_is_rejected() {
        let mut buf = record();
        let last = buf.len() - 1;
        buf[last] = 0xFF; // 6-bit QUBs must stay below 64
        let kind = ByteErrorKind::Invalid { value: 0xFF };
        assert_eq!(error(&buf), ("QUB payload", kind));
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let mut buf = record();
        // Overwrite delta with NaN.
        buf[8..12].copy_from_slice(&f32::NAN.to_le_bytes());
        let value = f32::NAN.to_bits().into();
        assert_eq!(
            error(&buf),
            ("base scale", ByteErrorKind::Invalid { value })
        );
    }

    #[test]
    fn caller_byte_limit_bounds_the_payload() {
        let t = sample_tensor(6);
        let mut buf = Vec::new();
        write_qub_tensor(&mut buf, &t);
        let n = t.bytes.len() as u64;
        // The exact payload size passes; one byte less rejects the header
        // before any payload is copied.
        assert_eq!(read_qub_tensor_bounded(buf.as_slice(), n).unwrap(), t);
        let err = read_qub_tensor_bounded(buf.as_slice(), n - 1).unwrap_err();
        assert_eq!(err.kind, ByteErrorKind::OverCap { len: n, cap: n - 1 });
    }

    #[test]
    fn huge_declared_payload_errors_without_a_huge_allocation() {
        let mut buf = record();
        // Rewrite the dims (rank 2 at offsets 16..32) to declare 2^33 × 1
        // elements, keeping the original (tiny) payload behind them.
        buf[16..24].copy_from_slice(&(1u64 << 33).to_le_bytes());
        buf[24..32].copy_from_slice(&1u64.to_le_bytes());
        // A caller-supplied bound rejects in the header.
        let err = read_qub_tensor_bounded(buf.as_slice(), 1 << 20).unwrap_err();
        let kind = ByteErrorKind::OverCap {
            len: 1 << 33,
            cap: 1 << 20,
        };
        assert_eq!(err.kind, kind);
        // Even the permissive default cannot be driven to a 8 GiB
        // allocation: the declared length is checked against the bytes
        // actually there first.
        let kind = ByteErrorKind::Truncated {
            needed: 1 << 33,
            available: 96,
        };
        assert_eq!(error(&buf), ("QUB payload", kind));
        // A product past u64 is an overflow, not a wrapped small length.
        buf[24..32].copy_from_slice(&(1u64 << 33).to_le_bytes());
        assert_eq!(error(&buf), ("element count", ByteErrorKind::Overflow));
    }

    #[test]
    fn implausible_rank_is_rejected() {
        let mut buf = record();
        buf[12..16].copy_from_slice(&1000u32.to_le_bytes());
        let kind = ByteErrorKind::OverCap { len: 1000, cap: 8 };
        assert_eq!(error(&buf), ("rank", kind));
    }
}
