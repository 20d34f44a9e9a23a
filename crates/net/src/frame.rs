//! Length-prefixed wire framing for the socket transport.
//!
//! Every frame is `header ‖ payload`. The 16-byte little-endian header
//! carries a magic, a codec version, per-frame flags, the payload
//! length, and a [`checksum`] of the payload:
//!
//! ```text
//! offset  size  field
//!      0     2  magic  (0x564D, "MV")
//!      2     1  version (2)
//!      3     1  flags   (bit 0 = ping, bit 1 = hello)
//!      4     4  payload length
//!      8     8  checksum of the payload (FNV-1a-64 over u64 words)
//! ```
//!
//! Version 1 checksummed byte by byte; version 2 folds eight bytes per
//! multiply, and the decoder refuses a version-1 stream as
//! [`FrameError::BadVersion`].
//!
//! The decoder is incremental (read the socket straight into it with
//! [`FrameDecoder::read_from`], or feed it bytes with
//! [`FrameDecoder::push`], then pull complete frames out) and hands each
//! payload out as an exact-size [`Payload`] of its own: the one copy a
//! received frame costs in user space. It **never panics on malformed
//! input**: a bad magic, an unknown version, an oversized length
//! declaration or a checksum mismatch each surface as a typed
//! [`FrameError`], and a stream that ends mid-frame is reported as
//! [`FrameError::Truncated`] by [`FrameDecoder::finish`]. Once a decoder
//! has returned an error the stream is unsynchronized and must be
//! dropped — exactly the fail-stop reaction the transport wants.

use mvr_core::Payload;
use std::fmt;
use std::io::{self, Read};

/// First two header bytes, little-endian `0x564D` — `"MV"` on the wire.
pub const FRAME_MAGIC: u16 = 0x564D;

/// Codec version this build writes and accepts.
pub const FRAME_VERSION: u8 = 2;

/// Header length in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// Default upper bound on a payload (checkpoint images dominate frame
/// sizes; 64 MiB leaves generous headroom while still rejecting a
/// corrupt length prefix before it allocates the machine away).
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Frame flag: an empty keep-alive ping (feeds the peer's read-silence
/// detector, carries no message).
pub const FLAG_PING: u8 = 0b01;

/// Frame flag: a transport-level handshake (payload identifies the
/// sending node), not an application message.
pub const FLAG_HELLO: u8 = 0b10;

/// Typed decode errors. Any of these means the byte stream is corrupt
/// or hostile; the connection must be dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first two header bytes were not [`FRAME_MAGIC`].
    BadMagic {
        /// What arrived instead.
        found: u16,
    },
    /// The version byte named a codec this build does not speak.
    BadVersion {
        /// What arrived instead.
        found: u8,
    },
    /// The header declared a payload larger than the decoder's bound.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The decoder's configured maximum.
        max: usize,
    },
    /// The payload checksum did not match the header's.
    BadChecksum {
        /// Checksum the header promised.
        expected: u64,
        /// Checksum of the bytes that actually arrived.
        found: u64,
    },
    /// The stream ended in the middle of a frame (EOF mid-header or
    /// mid-payload). Only reported by [`FrameDecoder::finish`].
    Truncated {
        /// Bytes still buffered when the stream ended.
        have: usize,
        /// Bytes the current frame still needed.
        needed: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:#06x}"),
            FrameError::BadVersion { found } => write!(f, "unsupported frame version {found}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload {len} bytes exceeds bound {max}")
            }
            FrameError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#x}, payload {found:#x}"
                )
            }
            FrameError::Truncated { have, needed } => {
                write!(
                    f,
                    "stream truncated mid-frame ({have} buffered, {needed} more needed)"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Header flags ([`FLAG_PING`], [`FLAG_HELLO`], or 0 for data).
    pub flags: u8,
    /// Payload bytes (verified against the header checksum), in a
    /// buffer of their own.
    pub payload: Payload,
}

/// The frame checksum: FNV-1a-64's xor-then-multiply, folded over the
/// little-endian `u64` words of `bytes` (a short tail zero-padded into
/// one last word), then over the length. Cheap, dependency-free
/// corruption detection — TCP already guards against line noise; this
/// guards against framing bugs and truncated writes. A change confined
/// to one word is always caught: xor with the word and multiplication
/// by the odd prime are both bijections, so every later state differs.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    fold(h, bytes.len() as u64)
}

/// The header that goes in front of `payload` on the wire.
pub fn frame_header(flags: u8, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..2].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[2] = FRAME_VERSION;
    header[3] = flags;
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..16].copy_from_slice(&checksum(payload).to_le_bytes());
    header
}

/// Encode one frame into `out` (header + payload appended).
pub fn encode_frame_into(flags: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&frame_header(flags, payload));
    out.extend_from_slice(payload);
}

/// Encode one frame as a fresh buffer.
pub fn encode_frame(flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(flags, payload, &mut out);
    out
}

/// Room a read asks for at least: one full-size socket read.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental frame decoder: read or push raw bytes in, pull verified
/// frames out. Sticky on error — after any [`FrameError`] the stream has
/// lost sync and every further call returns the same error.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Receive buffer, always initialised: `buf[pos..end]` is stream not
    /// yet decoded, `buf[end..]` room for the next read.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    max_payload: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder enforcing the default payload bound.
    pub fn new() -> Self {
        Self::with_max_payload(MAX_FRAME_PAYLOAD)
    }

    /// A decoder with an explicit payload bound.
    pub fn with_max_payload(max_payload: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            max_payload,
            poisoned: None,
        }
    }

    /// At least `want` bytes of room after the buffered stream: the
    /// stream moves to the front of the buffer first, and the buffer
    /// grows only if that is not enough.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.end < want && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Feed raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `source` straight into the decoder's buffer, so the
    /// source's copy is the only one before [`next_frame`](Self::next_frame).
    /// Returns what `read` returned: `Ok(0)` is the end of the stream.
    pub fn read_from(&mut self, source: &mut impl Read) -> io::Result<usize> {
        let n = source.read(self.room(READ_CHUNK))?;
        self.end += n;
        Ok(n)
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e.clone());
        e
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed — not an error until the stream actually ends
    /// (see [`finish`](Self::finish)). The payload is copied out of the
    /// decoder's buffer into an exact-size one, so a frame kept for
    /// later never pins the read buffer.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([avail[0], avail[1]]);
        if magic != FRAME_MAGIC {
            return Err(self.poison(FrameError::BadMagic { found: magic }));
        }
        let version = avail[2];
        if version != FRAME_VERSION {
            return Err(self.poison(FrameError::BadVersion { found: version }));
        }
        let flags = avail[3];
        let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        if len > self.max_payload {
            let max = self.max_payload;
            return Err(self.poison(FrameError::Oversized { len, max }));
        }
        let expected = u64::from_le_bytes(avail[8..16].try_into().expect("8 header bytes"));
        if avail.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let bytes = &avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let found = checksum(bytes);
        if found != expected {
            return Err(self.poison(FrameError::BadChecksum { expected, found }));
        }
        let payload = Payload::from(bytes);
        self.pos += FRAME_HEADER_LEN + len;
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        }
        Ok(Some(Frame { flags, payload }))
    }

    /// Declare the stream ended (EOF). Leftover bytes mean the peer
    /// died mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let have = self.buffered();
        if have == 0 {
            return Ok(());
        }
        let needed = if have < FRAME_HEADER_LEN {
            FRAME_HEADER_LEN - have
        } else {
            let avail = &self.buf[self.pos..self.end];
            let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
            (FRAME_HEADER_LEN + len).saturating_sub(have)
        };
        Err(FrameError::Truncated { have, needed })
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
        let mut dec = FrameDecoder::new();
        dec.push(bytes);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame()? {
            out.push(f);
        }
        dec.finish()?;
        Ok(out)
    }

    #[test]
    fn roundtrip_single_and_multiple_frames() {
        let a = encode_frame(0, b"hello");
        let b = encode_frame(FLAG_PING, b"");
        let c = encode_frame(0, &vec![7u8; 10_000]);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&c);
        let frames = decode_all(&stream).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(&frames[0].payload[..], b"hello");
        assert_eq!(frames[1].flags, FLAG_PING);
        assert!(frames[1].payload.is_empty());
        assert_eq!(frames[2].payload.len(), 10_000);
    }

    #[test]
    fn roundtrip_survives_any_split_point() {
        let mut stream = encode_frame(0, b"first");
        stream.extend_from_slice(&encode_frame(FLAG_HELLO, b"second payload"));
        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&stream[..split]);
            let mut got = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
            dec.push(&stream[split..]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
            dec.finish().unwrap();
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(&got[0].payload[..], b"first");
            assert_eq!(&got[1].payload[..], b"second payload");
        }
    }

    #[test]
    fn corruption_injection_every_byte_yields_typed_error_not_panic() {
        let clean = encode_frame(0, b"corruption target payload");
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0xA5;
            let mut dec = FrameDecoder::new();
            dec.push(&bad);
            // Either a typed decode error, or (length-field corruption
            // shrinking the frame) a parse that then trips the checksum
            // or leaves truncated residue. Never a panic, never a clean
            // full-length frame with altered bytes going unnoticed.
            match dec.next_frame() {
                Err(
                    FrameError::BadMagic { .. }
                    | FrameError::BadVersion { .. }
                    | FrameError::Oversized { .. }
                    | FrameError::BadChecksum { .. },
                ) => {}
                Err(FrameError::Truncated { .. }) => unreachable!("only finish() truncates"),
                Ok(None) => {
                    // Length grew: stream is now short — finish must flag it.
                    assert!(dec.finish().is_err(), "byte {i}: silent acceptance");
                }
                Ok(Some(frame)) => {
                    // A shrunk length can still checksum-match only for
                    // the degenerate empty prefix — the flags byte is the
                    // one header byte with no integrity coverage.
                    assert!(
                        i == 3 && &frame.payload[..] == b"corruption target payload",
                        "byte {i}: corrupted frame decoded cleanly"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_declaration_rejected_before_buffering_payload() {
        let mut dec = FrameDecoder::with_max_payload(1024);
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        hdr.push(FRAME_VERSION);
        hdr.push(0);
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes());
        dec.push(&hdr);
        match dec.next_frame() {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Sticky: the decoder stays poisoned.
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn truncated_stream_reported_at_finish() {
        let frame = encode_frame(0, b"full frame");
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..frame.len() - 3]);
        assert_eq!(dec.next_frame().unwrap(), None);
        match dec.finish() {
            Err(FrameError::Truncated { have, needed }) => {
                assert!(have > 0);
                assert_eq!(needed, 3);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Mid-header truncation too.
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..5]);
        assert!(matches!(dec.finish(), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn checksum_catches_payload_swap() {
        let mut f = encode_frame(0, b"payload-a");
        let other = encode_frame(0, b"payload-b");
        // Splice payload B under header A.
        f.truncate(FRAME_HEADER_LEN);
        f.extend_from_slice(&other[FRAME_HEADER_LEN..]);
        let mut dec = FrameDecoder::new();
        dec.push(&f);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    fn flipped(payload: &[u8], bit: usize) -> Result<Option<Frame>, FrameError> {
        let mut wire = encode_frame(0, payload);
        wire[FRAME_HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        dec.next_frame()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151) ^ seed)
            .collect()
    }

    #[test]
    fn every_single_bit_flip_of_a_short_payload_is_caught() {
        for len in 0..=64 {
            let payload = pattern(len, len as u8);
            for bit in 0..len * 8 {
                assert!(
                    matches!(flipped(&payload, bit), Err(FrameError::BadChecksum { .. })),
                    "{len} bytes, bit {bit}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]

        #[test]
        fn sampled_bit_flips_of_a_64k_payload_are_caught(bit in 0usize..(64 << 10) * 8, seed in 0u8..=255) {
            let payload = pattern(64 << 10, seed);
            proptest::prop_assert!(matches!(
                flipped(&payload, bit),
                Err(FrameError::BadChecksum { .. })
            ));
        }
    }

    #[test]
    fn the_checksum_folds_words_and_the_length() {
        // Trailing zero bytes pad the last word, so only the length tells
        // these apart.
        assert_ne!(checksum(b"ab"), checksum(b"ab\0"));
        assert_ne!(checksum(&[]), checksum(&[0; 8]));
        // One word and the same word split over its byte order differ.
        assert_ne!(
            checksum(&[1, 0, 0, 0, 0, 0, 0, 0]),
            checksum(&[0, 0, 0, 0, 0, 0, 0, 1])
        );
    }

    #[test]
    fn a_version_1_stream_is_refused() {
        let mut wire = encode_frame(0, b"old");
        wire[2] = 1;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::BadVersion { found: 1 }));
    }

    /// A frame's payload is a buffer of its own, exactly its size: a
    /// receiver that keeps frames (an unexpected-message backlog) keeps
    /// only them, never the decoder's read buffer.
    #[test]
    fn a_frame_payload_does_not_pin_the_decoder_buffer() {
        let mut dec = FrameDecoder::new();
        dec.push(&encode_frame(0, &[7; 100]));
        dec.push(&encode_frame(0, &[8; 5000]));
        let first = dec.next_frame().unwrap().expect("whole frame");
        let buffer = dec.buf.as_ptr_range();
        assert!(!buffer.contains(&first.payload.as_ptr()));
        assert_eq!(first.payload.len(), 100);
        // The buffer is reused for what comes next; the frame is intact.
        let second = dec.next_frame().unwrap().expect("whole frame");
        dec.push(&encode_frame(0, &[9; 100]));
        assert_eq!(dec.buf.as_ptr_range(), buffer, "no reallocation");
        assert_eq!(&first.payload[..], &[7; 100][..]);
        assert_eq!(&second.payload[..], &[8; 5000][..]);
    }

    /// A reader that hands out at most `chunk` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn reads_land_in_the_decoder_buffer_across_any_chunking() {
        let sizes = [0, 1, 15, 16, 100, 70_000, 3, 200_000, 64];
        let mut stream = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(0, &pattern(len, i as u8)));
        }
        for chunk in [1, 7, 4096, 65_536, usize::MAX] {
            let mut source = Trickle {
                data: &stream,
                chunk,
            };
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            while dec.read_from(&mut source).unwrap() > 0 {
                while let Some(frame) = dec.next_frame().unwrap() {
                    got.push(frame.payload);
                }
            }
            dec.finish().unwrap();
            assert_eq!(got.len(), sizes.len(), "chunk {chunk}");
            for (i, (frame, &len)) in got.iter().zip(&sizes).enumerate() {
                assert_eq!(&frame[..], &pattern(len, i as u8)[..], "chunk {chunk}");
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = FrameError::Oversized { len: 9, max: 4 };
        assert!(e.to_string().contains("9"));
        assert!(FrameError::BadMagic { found: 0xDEAD }
            .to_string()
            .contains("magic"));
    }
}
