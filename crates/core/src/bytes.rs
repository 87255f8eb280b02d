//! The one checked byte reader. Every byte that arrives from a socket or a
//! file is parsed through a [`ByteReader`], and every way those bytes can
//! be wrong is one [`ByteError`]: the field's name, the offset it starts
//! at, and a [`ByteErrorKind`].
//!
//! A read that succeeds allocates and formats nothing beyond the value it
//! returns; the error is built only on the failing path. The reader has no
//! settings: callers pass their own caps (a frame bound, a payload bound)
//! at the call. Each crate maps the error into its own with one `From`;
//! the mapping into an [`std::io::Error`] of kind `InvalidData`, which the
//! wire protocol uses, sits here because the orphan rule puts it beside
//! the type.
//!
//! ```
//! use quq_core::bytes::{ByteErrorKind, ByteReader};
//!
//! let mut r = ByteReader::new(&[7, 2, 0, b'h', b'i', 9]);
//! assert_eq!(r.u8("opcode").unwrap(), 7);
//! assert_eq!(r.utf8::<u16>("name", 255).unwrap(), "hi");
//! let err = r.finish().unwrap_err();
//! assert_eq!((err.offset, err.kind), (5, ByteErrorKind::Trailing { count: 1 }));
//! ```

use std::fmt;

/// Why a field could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ByteErrorKind {
    /// The field needs `needed` bytes; `available` remain.
    Truncated { needed: u64, available: u64 },
    /// A length or count `len` past the caller's `cap`.
    OverCap { len: u64, cap: u64 },
    /// A length or element count whose size overflows.
    Overflow,
    /// `count` bytes left after the last field.
    Trailing { count: u64 },
    /// A value the field cannot hold: an unknown code, a bad magic, an
    /// out-of-range number (an `f32` by its bits), or the first byte of
    /// text that is not UTF-8.
    Invalid { value: u64 },
}

/// A field that could not be read, where, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteError {
    /// The field's name.
    pub field: &'static str,
    /// Where the field starts (the bad byte, for text that is not UTF-8),
    /// from the start of the reader's input.
    pub offset: usize,
    /// What is wrong with it.
    pub kind: ByteErrorKind,
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, at) = (self.field, self.offset);
        match self.kind {
            ByteErrorKind::Truncated { needed, available } => write!(
                f,
                "truncated {field} at byte {at}: needs {needed} bytes, {available} remain"
            ),
            ByteErrorKind::OverCap { len, cap } => {
                write!(f, "{field} at byte {at}: {len} exceeds the cap of {cap}")
            }
            ByteErrorKind::Overflow => write!(f, "{field} at byte {at} overflows"),
            ByteErrorKind::Trailing { count } => write!(f, "{count} trailing bytes at byte {at}"),
            ByteErrorKind::Invalid { value } => {
                write!(f, "unknown {field} value {value} at byte {at}")
            }
        }
    }
}

impl std::error::Error for ByteError {}

impl From<ByteError> for std::io::Error {
    fn from(e: ByteError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// An unsigned integer that prefixes a length: `u8`, `u16` or `u32`.
pub trait LenPrefix: Into<u64> {
    /// Reads the prefix.
    fn read(r: &mut ByteReader<'_>, field: &'static str) -> Result<Self, ByteError>;
}

macro_rules! len_prefix {
    ($($t:ident),*) => {$(
        impl LenPrefix for $t {
            #[inline]
            fn read(r: &mut ByteReader<'_>, field: &'static str) -> Result<$t, ByteError> {
                r.$t(field)
            }
        }
    )*};
}
len_prefix!(u8, u16, u32);

/// A checked little-endian reader over a borrowed byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
    len: usize,
    /// Where the field read last starts.
    last: usize,
}

macro_rules! fixed {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`; `Truncated` when too few bytes remain.")]
        #[inline]
        pub fn $t(&mut self, field: &'static str) -> Result<$t, ByteError> {
            self.array(field).map($t::from_le_bytes)
        }
    )*};
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        let (rest, len, last) = (bytes, bytes.len(), 0);
        ByteReader { rest, len, last }
    }

    /// Bytes consumed so far: the offset of the next field.
    #[inline]
    pub fn offset(&self) -> usize {
        self.len - self.rest.len()
    }

    #[inline]
    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], ByteError> {
        self.last = self.offset();
        let split = self.rest.split_first_chunk::<N>();
        let (head, tail) = split.ok_or_else(|| self.truncated(field, N))?;
        self.rest = tail;
        Ok(*head)
    }

    fixed!(u8, u16, u32, u64, i64, f32);

    /// The next `n` bytes, borrowed; `Truncated` when fewer remain.
    #[inline]
    pub fn bytes(&mut self, field: &'static str, n: usize) -> Result<&'a [u8], ByteError> {
        self.last = self.offset();
        let split = self.rest.split_at_checked(n);
        let (head, tail) = split.ok_or_else(|| self.truncated(field, n))?;
        self.rest = tail;
        Ok(head)
    }

    /// The bytes behind a length prefix of type `L`, at the prefix's
    /// offset: `OverCap` when the length exceeds `cap`, `Truncated` when
    /// the prefix or its bytes are cut short.
    #[inline]
    pub fn len_prefixed<L: LenPrefix>(
        &mut self,
        field: &'static str,
        cap: u64,
    ) -> Result<&'a [u8], ByteError> {
        let at = self.offset();
        let n: u64 = L::read(self, field)?.into();
        if n > cap {
            return Err(self.over_cap(field, n, cap));
        }
        // A length past the address space is past the input too.
        let bytes = self.bytes(field, usize::try_from(n).unwrap_or(usize::MAX))?;
        self.last = at;
        Ok(bytes)
    }

    /// UTF-8 text behind a length prefix, as [`ByteReader::len_prefixed`];
    /// `Invalid` at the first byte that is not UTF-8.
    pub fn utf8<L: LenPrefix>(
        &mut self,
        field: &'static str,
        cap: u64,
    ) -> Result<&'a str, ByteError> {
        let bytes = self.len_prefixed::<L>(field, cap)?;
        std::str::from_utf8(bytes).map_err(|e| {
            let value = bytes[e.valid_up_to()].into();
            let at = self.offset() - bytes.len() + e.valid_up_to();
            self.fail(field, at, ByteErrorKind::Invalid { value })
        })
    }

    /// `n` little-endian `f32`s: `Overflow` when `4 n` overflows,
    /// `Truncated` when fewer than `4 n` bytes remain.
    pub fn f32s(&mut self, field: &'static str, n: usize) -> Result<Vec<f32>, ByteError> {
        self.last = self.offset();
        let len = n.checked_mul(4).ok_or_else(|| self.overflow(field))?;
        let (words, _) = self.bytes(field, len)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| f32::from_le_bytes(w)).collect())
    }

    /// Ends the input: `Trailing` when any byte is left.
    #[inline]
    pub fn finish(&self) -> Result<(), ByteError> {
        let count = self.rest.len() as u64;
        let trailing = ByteErrorKind::Trailing { count };
        match count {
            0 => Ok(()),
            _ => Err(self.fail("end of input", self.offset(), trailing)),
        }
    }

    /// An `Invalid` error for the field read last, which holds `value`.
    #[cold]
    pub fn invalid(&self, field: &'static str, value: u64) -> ByteError {
        self.fail(field, self.last, ByteErrorKind::Invalid { value })
    }

    /// An `OverCap` error for the field read last, which holds `len`.
    #[cold]
    pub fn over_cap(&self, field: &'static str, len: u64, cap: u64) -> ByteError {
        self.fail(field, self.last, ByteErrorKind::OverCap { len, cap })
    }

    /// An `Overflow` error for the field read last.
    #[cold]
    pub fn overflow(&self, field: &'static str) -> ByteError {
        self.fail(field, self.last, ByteErrorKind::Overflow)
    }

    #[cold]
    #[inline(never)]
    fn truncated(&self, field: &'static str, needed: usize) -> ByteError {
        let (needed, available) = (needed as u64, self.rest.len() as u64);
        let truncated = ByteErrorKind::Truncated { needed, available };
        self.fail(field, self.offset(), truncated)
    }

    #[cold]
    fn fail(&self, field: &'static str, offset: usize, kind: ByteErrorKind) -> ByteError {
        ByteError {
            field,
            offset,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_failure_names_its_field_offset_and_kind() {
        let mut r = ByteReader::new(&[1, 0, 2, 0xff, 0xfe, 9]);
        let fail = |e: ByteError| (e.field, e.offset, e.kind);
        let (needed, available, len, cap, value) = (8, 6, 1, 0, 0xff);
        let truncated = ByteErrorKind::Truncated { needed, available };
        assert_eq!(fail(r.clone().u64("w").unwrap_err()), ("w", 0, truncated));
        let e = r.clone().len_prefixed::<u16>("s", 0).unwrap_err();
        assert_eq!(fail(e), ("s", 0, ByteErrorKind::OverCap { len, cap }));
        assert_eq!(r.u16("len").unwrap(), 1);
        let e = r.clone().utf8::<u8>("name", 9).unwrap_err();
        assert_eq!(fail(e), ("name", 3, ByteErrorKind::Invalid { value }));
        let e = r.clone().f32s("data", usize::MAX).unwrap_err();
        assert_eq!(fail(e), ("data", 2, ByteErrorKind::Overflow));
        let e = r.finish().unwrap_err();
        assert_eq!(e.to_string(), "4 trailing bytes at byte 2");
        let io = std::io::Error::from(e);
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(io.get_ref().and_then(|e| e.downcast_ref()), Some(&e));
    }
}
