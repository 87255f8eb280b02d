//! Stateful, restartable framing: the per-connection decode state machine
//! and the buffered non-blocking writer.
//!
//! A *stateless* frame reader is wrong on any stream that can pause: if a
//! read times out after part of the 4-byte length prefix (or payload) has
//! been consumed, those bytes are dropped and every later frame on the
//! connection parses from mid-stream garbage — a well-behaved slow client
//! is permanently desynced. [`FrameDecoder`] is what the event loop and
//! the client are built on instead: it *retains* partial bytes across
//! readiness events, so a frame can arrive one byte at a time over any
//! number of wakeups and still decode bit-exactly.
//!
//! [`WriteBuf`] is the mirror image for the write side: responses are
//! queued as whole frames and flushed as far as the socket allows; a
//! short write leaves the remainder buffered for the next writable event,
//! so a slow *reader* can never shear a response frame either.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use quq_core::bytes::{ByteErrorKind, ByteReader};

use crate::protocol::MAX_FRAME;

/// Per-connection incremental decoder for `u32`-length-prefixed frames.
///
/// Feed it bytes in arbitrary chunks ([`FrameDecoder::extend`] or
/// [`FrameDecoder::read_from`]); pop complete frames with
/// [`FrameDecoder::next_frame`]. Partial prefixes and payloads survive
/// between calls — decoding is a pure function of the byte stream, never
/// of its chunking.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

/// Read buffer granularity for [`FrameDecoder::read_from`].
const READ_CHUNK: usize = 16 * 1024;

/// Keep at most this much idle capacity parked on a connection, so a
/// burst of large frames doesn't pin its high-water mark forever.
const IDLE_CAPACITY: usize = 64 * 1024;

impl FrameDecoder {
    /// A fresh decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream currently sits mid-frame (a partial prefix or
    /// payload is buffered). A clean EOF is only clean at `!midframe()`.
    pub fn midframe(&self) -> bool {
        self.pending() > 0
    }

    /// Appends raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` into the buffer. `Ok(0)` is end-of-stream;
    /// `WouldBlock`/`TimedOut` mean "no bytes right now" and leave all
    /// buffered state intact — exactly the case a stateless reader gets
    /// wrong.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (`Interrupted` is retried internally).
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match r.read(&mut chunk) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.extend(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the next complete frame, or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when a length prefix exceeds
    /// [`MAX_FRAME`] — the stream is hostile or corrupt and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut r = ByteReader::new(&self.buf[self.pos..]);
        let frame = match r.len_prefixed::<u32>("frame", MAX_FRAME.into()) {
            Ok(frame) => frame.to_vec(),
            Err(e) if matches!(e.kind, ByteErrorKind::Truncated { .. }) => {
                self.compact();
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        self.pos += r.offset();
        self.compact();
        Ok(Some(frame))
    }

    /// Reclaims consumed prefix space; sheds oversized idle capacity.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.buf.capacity() > IDLE_CAPACITY {
                self.buf.shrink_to(IDLE_CAPACITY);
            }
        } else if self.pos > READ_CHUNK {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Buffered writer for length-prefixed frames over a non-blocking socket.
///
/// Frames are enqueued whole; [`WriteBuf::flush_to`] pushes as many bytes
/// as the socket accepts and keeps the rest for the next writable event.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: VecDeque<u8>,
}

impl WriteBuf {
    /// An empty write buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Bytes queued but not yet written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether everything queued has been flushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Queues one frame (length prefix + payload).
    pub fn enqueue_frame(&mut self, payload: &[u8]) {
        debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
        self.buf.extend((payload.len() as u32).to_le_bytes());
        self.buf.extend(payload.iter().copied());
    }

    /// Writes as much as the transport accepts right now. Returns `true`
    /// when the buffer is fully flushed; `false` means the socket would
    /// block and the caller should await writability.
    ///
    /// # Errors
    ///
    /// Propagates transport errors other than `WouldBlock`
    /// (`Interrupted` is retried internally). A zero-length write is
    /// reported as [`io::ErrorKind::WriteZero`].
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            match w.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        if self.buf.capacity() > IDLE_CAPACITY {
            self.buf.shrink_to(IDLE_CAPACITY);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_stream(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            out.extend_from_slice(&(f.len() as u32).to_le_bytes());
            out.extend_from_slice(f);
        }
        out
    }

    fn decode_all(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        got
    }

    #[test]
    fn whole_stream_decodes_all_frames() {
        let stream = frame_stream(&[b"hello", b"", b"world!"]);
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        let got = decode_all(&mut dec);
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new(), b"world!".to_vec()]);
        assert!(!dec.midframe());
    }

    #[test]
    fn byte_at_a_time_decodes_identically() {
        let stream = frame_stream(&[b"hello", b"", b"world!", &[0u8; 300]]);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            got.extend(decode_all(&mut dec));
        }
        assert_eq!(
            got,
            vec![
                b"hello".to_vec(),
                Vec::new(),
                b"world!".to_vec(),
                vec![0u8; 300]
            ]
        );
        assert!(!dec.midframe());
    }

    #[test]
    fn every_chunking_of_a_stream_decodes_identically() {
        // Exhaustive-ish: pseudo-random chunk splits must never change the
        // decoded frames — chunking-independence IS the desync fix.
        let frames: Vec<Vec<u8>> = (0..7u8)
            .map(|i| {
                (0..=i as usize * 37)
                    .map(|j| (i ^ j as u8).wrapping_mul(31))
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let stream = frame_stream(&refs);
        let mut rng = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..50 {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut off = 0;
            while off < stream.len() {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let take = (1 + (rng >> 33) as usize % 13).min(stream.len() - off);
                dec.extend(&stream[off..off + take]);
                off += take;
                got.extend(decode_all(&mut dec));
            }
            assert_eq!(got, frames);
            assert!(!dec.midframe());
        }
    }

    #[test]
    fn midframe_is_reported_across_partial_prefix_and_payload() {
        let stream = frame_stream(&[b"abcd"]);
        let mut dec = FrameDecoder::new();
        dec.extend(&stream[..2]); // half the length prefix
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.midframe());
        dec.extend(&stream[2..6]); // full prefix + half payload
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.midframe());
        dec.extend(&stream[6..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"abcd");
        assert!(!dec.midframe());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn read_from_preserves_state_across_wouldblock() {
        struct Dribble {
            data: Vec<u8>,
            served: usize,
            block_next: bool,
        }
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.block_next {
                    self.block_next = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
                }
                self.block_next = true;
                if self.served == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.served];
                self.served += 1;
                Ok(1)
            }
        }
        let stream = frame_stream(&[b"slow", b"client"]);
        let mut src = Dribble {
            data: stream,
            served: 0,
            block_next: false,
        };
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        loop {
            match dec.read_from(&mut src) {
                Ok(0) => break,
                Ok(_) => got.extend(decode_all(&mut dec)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, vec![b"slow".to_vec(), b"client".to_vec()]);
    }

    #[test]
    fn write_buf_survives_short_writes_and_wouldblock() {
        struct Throttled {
            out: Vec<u8>,
            budget: usize,
        }
        impl Write for Throttled {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(3).min(self.budget);
                self.budget -= n;
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuf::new();
        wb.enqueue_frame(b"first response");
        wb.enqueue_frame(b"second");
        let mut sink = Throttled {
            out: Vec::new(),
            budget: 10,
        };
        assert!(
            !wb.flush_to(&mut sink).unwrap(),
            "budget exhausted mid-frame"
        );
        assert!(!wb.is_empty());
        sink.budget = usize::MAX;
        assert!(wb.flush_to(&mut sink).unwrap());
        assert!(wb.is_empty());
        // The byte stream is the two frames, unsheared.
        let mut dec = FrameDecoder::new();
        dec.extend(&sink.out);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"first response");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"second");
    }
}
