//! The MPI library's wire format, carried opaquely inside the channel's
//! protocol messages.
//!
//! MPICH's protocol layer implements "the short, eager and rendez-vous
//! protocols" above the channel (§4.4). We implement eager (payload rides
//! with the envelope) and rendezvous (a request/clear-to-send handshake
//! precedes the payload) with the MPICH 1.2.5 default threshold of
//! 128 000 bytes — the protocol switch visible between 64 kB and 128 kB in
//! Fig. 10 of the paper.
//!
//! The frame format is the vendored bincode's bytes, written by hand; the
//! conformance test against `bincode::serialize` is the definition. The
//! hand-written codec is what makes an MPI message cost one copy: an
//! eager send copies the caller's slice once into an exact-size frame
//! ([`encode_eager`]), and [`MpiFrame::decode`] hands the body out as a
//! slice of the delivered frame, without copying. The decoder is strict:
//! it accepts only what the encoder writes, so a frame that decodes
//! re-encodes to the same bytes.

use crate::error::{MpiError, MpiResult};
use mvr_core::Payload;
use serde::{Deserialize, Serialize};

/// Rendezvous threshold in bytes (MPICH 1.2.5 default). Payloads of this
/// size or larger use the rendezvous protocol.
pub const RNDV_THRESHOLD: usize = 128_000;

/// Matching context: separates user point-to-point traffic from internal
/// collective rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Context {
    /// User `send`/`recv` traffic.
    PointToPoint,
    /// Collective operation number `seq` (all ranks invoke collectives in
    /// the same order, so a per-process counter matches globally).
    Collective {
        /// Global collective sequence number.
        seq: u64,
    },
}

/// One MPI-layer message.
///
/// Only the conformance tests serialize it through serde; the data path
/// uses the hand-written codec below.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(test, derive(Serialize))]
pub enum MpiFrame {
    /// Complete message (short/eager protocols).
    Eager {
        /// Matching context.
        context: Context,
        /// User tag.
        tag: i32,
        /// Message body.
        body: Payload,
    },
    /// Rendezvous request: "I have `len` bytes for (context, tag)".
    RndvReq {
        /// Matching context.
        context: Context,
        /// User tag.
        tag: i32,
        /// Sender-local rendezvous id, echoed by the CTS.
        rndv_id: u64,
        /// Payload length, for receiver-side buffer planning.
        len: u64,
    },
    /// Clear-to-send: the receiver matched the rendezvous request.
    RndvCts {
        /// Echoed rendezvous id.
        rndv_id: u64,
    },
    /// The rendezvous payload.
    RndvData {
        /// Echoed rendezvous id.
        rndv_id: u64,
        /// Message body.
        body: Payload,
    },
}

// ---------------------------------------------------------------------
// The codec: the vendored bincode's bytes, written by hand.
//
// bincode encodes a serde value tree: an enum variant is the tag byte
// `VARIANT_TUPLE`, its index as a varint, its name as a length-prefixed
// string, then its field count and its fields in declaration order (a
// unit variant is tagged `VARIANT_UNIT` and stops after its name); a
// `u64` is `U64` plus a LEB128 varint, an `i32` is `I64` plus the
// zigzagged varint, a body is `BYTES` plus its varint length and the raw
// bytes.
// ---------------------------------------------------------------------

const T_U64: u8 = 3;
const T_I64: u8 = 4;
const T_BYTES: u8 = 8;
const T_VARIANT_UNIT: u8 = 14;
const T_VARIANT_TUPLE: u8 = 16;

/// Variant names of [`MpiFrame`] and [`Context`], by variant index.
const FRAME_VARIANTS: [&str; 4] = ["Eager", "RndvReq", "RndvCts", "RndvData"];
/// Field counts of the [`MpiFrame`] variants, by variant index.
const FRAME_FIELDS: [u8; 4] = [3, 4, 1, 2];
const CONTEXT_VARIANTS: [&str; 2] = ["PointToPoint", "Collective"];

/// The longest header: `RndvReq` in a collective context with every
/// integer at its widest (11 + 25 + 6 + 11 + 11 bytes).
const MAX_HEAD: usize = 64;

/// A frame header built on the stack, then joined with the body in one
/// allocation.
struct Head {
    buf: [u8; MAX_HEAD],
    len: usize,
}

impl Head {
    /// The header of frame variant `idx`.
    fn variant(idx: usize) -> Head {
        let mut h = Head {
            buf: [0; MAX_HEAD],
            len: 0,
        };
        h.push(T_VARIANT_TUPLE);
        h.name(idx, FRAME_VARIANTS[idx]);
        h.push(FRAME_FIELDS[idx]);
        h
    }

    fn push(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.push(n as u8);
    }

    /// A variant's index and its length-prefixed name.
    fn name(&mut self, idx: usize, name: &str) {
        self.varint(idx as u64);
        self.varint(name.len() as u64);
        self.buf[self.len..self.len + name.len()].copy_from_slice(name.as_bytes());
        self.len += name.len();
    }

    fn context(&mut self, c: Context) {
        match c {
            Context::PointToPoint => {
                self.push(T_VARIANT_UNIT);
                self.name(0, CONTEXT_VARIANTS[0]);
            }
            Context::Collective { seq } => {
                self.push(T_VARIANT_TUPLE);
                self.name(1, CONTEXT_VARIANTS[1]);
                self.push(1);
                self.u64(seq);
            }
        }
    }

    fn tag(&mut self, tag: i32) {
        let t = tag as i64;
        self.push(T_I64);
        self.varint(((t << 1) ^ (t >> 63)) as u64);
    }

    fn u64(&mut self, n: u64) {
        self.push(T_U64);
        self.varint(n);
    }

    /// The header followed by `body` as a byte field, in one allocation.
    fn with_body(mut self, body: &[u8]) -> Payload {
        self.push(T_BYTES);
        self.varint(body.len() as u64);
        Payload::concat(&[&self.buf[..self.len], body])
    }

    fn finish(self) -> Payload {
        Payload::concat(&[&self.buf[..self.len]])
    }
}

/// Encode an eager frame straight from the caller's buffer: the one copy
/// of the body a send makes.
pub fn encode_eager(context: Context, tag: i32, body: &[u8]) -> Payload {
    let mut h = Head::variant(0);
    h.context(context);
    h.tag(tag);
    h.with_body(body)
}

/// A strict reader of canonical frames: any byte sequence the encoder
/// would not produce is an error, so whatever decodes re-encodes to the
/// same bytes.
struct Reader<'a> {
    frame: &'a Payload,
    pos: usize,
}

type Parse<T> = Result<T, &'static str>;

impl Reader<'_> {
    fn byte(&mut self) -> Parse<u8> {
        let b = *self.frame.get(self.pos).ok_or("truncated")?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Parse<()> {
        if self.byte()? == want {
            Ok(())
        } else {
            Err("unexpected tag byte")
        }
    }

    /// A minimal LEB128 varint of at most ten bytes.
    fn varint(&mut self) -> Parse<u64> {
        let mut n = 0u64;
        for i in 0..10 {
            let b = self.byte()?;
            if i == 9 && b > 1 {
                return Err("varint overflow");
            }
            n |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err("overlong varint");
                }
                return Ok(n);
            }
        }
        Err("varint overflow")
    }

    /// A variant's index and name; returns the index.
    fn name(&mut self, names: &[&str]) -> Parse<usize> {
        let idx = usize::try_from(self.varint()?).map_err(|_| "bad variant index")?;
        let name = names.get(idx).ok_or("unknown variant")?;
        if self.varint()? != name.len() as u64 {
            return Err("variant name mismatch");
        }
        let end = self.pos + name.len();
        if self.frame.get(self.pos..end) != Some(name.as_bytes()) {
            return Err("variant name mismatch");
        }
        self.pos = end;
        Ok(idx)
    }

    fn context(&mut self) -> Parse<Context> {
        match self.byte()? {
            T_VARIANT_UNIT if self.name(&CONTEXT_VARIANTS)? == 0 => Ok(Context::PointToPoint),
            T_VARIANT_TUPLE if self.name(&CONTEXT_VARIANTS)? == 1 => {
                self.expect(1)?;
                Ok(Context::Collective { seq: self.u64()? })
            }
            _ => Err("bad context"),
        }
    }

    fn tag(&mut self) -> Parse<i32> {
        self.expect(T_I64)?;
        let z = self.varint()?;
        let z = u32::try_from(z).map_err(|_| "tag out of i32 range")?;
        Ok(((z >> 1) as i32) ^ -((z & 1) as i32))
    }

    fn u64(&mut self) -> Parse<u64> {
        self.expect(T_U64)?;
        self.varint()
    }

    /// A byte field, returned as a slice of the frame: no copy.
    fn body(&mut self) -> Parse<Payload> {
        self.expect(T_BYTES)?;
        let len = self.varint()?;
        let left = (self.frame.len() - self.pos) as u64;
        if len > left {
            return Err("body truncated");
        }
        let start = self.pos;
        self.pos += len as usize;
        Ok(self.frame.slice(start..self.pos))
    }

    fn frame(&mut self) -> Parse<MpiFrame> {
        self.expect(T_VARIANT_TUPLE)?;
        let idx = self.name(&FRAME_VARIANTS)?;
        self.expect(FRAME_FIELDS[idx])?;
        let frame = match idx {
            0 => MpiFrame::Eager {
                context: self.context()?,
                tag: self.tag()?,
                body: self.body()?,
            },
            1 => MpiFrame::RndvReq {
                context: self.context()?,
                tag: self.tag()?,
                rndv_id: self.u64()?,
                len: self.u64()?,
            },
            2 => MpiFrame::RndvCts {
                rndv_id: self.u64()?,
            },
            _ => MpiFrame::RndvData {
                rndv_id: self.u64()?,
                body: self.body()?,
            },
        };
        if self.pos != self.frame.len() {
            return Err("trailing bytes");
        }
        Ok(frame)
    }
}

impl MpiFrame {
    /// Serialize for the channel.
    pub fn encode(&self) -> Payload {
        match self {
            MpiFrame::Eager { context, tag, body } => encode_eager(*context, *tag, body),
            MpiFrame::RndvReq {
                context,
                tag,
                rndv_id,
                len,
            } => {
                let mut h = Head::variant(1);
                h.context(*context);
                h.tag(*tag);
                h.u64(*rndv_id);
                h.u64(*len);
                h.finish()
            }
            MpiFrame::RndvCts { rndv_id } => {
                let mut h = Head::variant(2);
                h.u64(*rndv_id);
                h.finish()
            }
            MpiFrame::RndvData { rndv_id, body } => {
                let mut h = Head::variant(3);
                h.u64(*rndv_id);
                h.with_body(body)
            }
        }
    }

    /// Deserialize from the channel. A body is a view into `bytes`.
    pub fn decode(bytes: &Payload) -> MpiResult<Self> {
        Reader {
            frame: bytes,
            pos: 0,
        }
        .frame()
        .map_err(|e| MpiError::Protocol(format!("bad MPI frame: {e}")))
    }
}

/// A wildcard-capable source selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Match a specific rank.
    Rank(mvr_core::Rank),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl Source {
    /// Does `r` satisfy this selector?
    #[inline]
    pub fn matches(&self, r: mvr_core::Rank) -> bool {
        match self {
            Source::Rank(s) => *s == r,
            Source::Any => true,
        }
    }
}

/// A wildcard-capable tag selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Match a specific tag.
    Value(i32),
    /// `MPI_ANY_TAG`.
    Any,
}

impl Tag {
    /// Does `t` satisfy this selector?
    #[inline]
    pub fn matches(&self, t: i32) -> bool {
        match self {
            Tag::Value(v) => *v == t,
            Tag::Any => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::Rank;
    use proptest::prelude::*;

    #[test]
    fn frame_roundtrip() {
        let frames = vec![
            MpiFrame::Eager {
                context: Context::PointToPoint,
                tag: 7,
                body: Payload::from_vec(vec![1, 2, 3]),
            },
            MpiFrame::RndvReq {
                context: Context::Collective { seq: 4 },
                tag: -1,
                rndv_id: 9,
                len: 1 << 20,
            },
            MpiFrame::RndvCts { rndv_id: 9 },
            MpiFrame::RndvData {
                rndv_id: 9,
                body: Payload::filled(0, 8),
            },
        ];
        for f in frames {
            let enc = f.encode();
            assert_eq!(MpiFrame::decode(&enc).unwrap(), f);
        }
    }

    #[test]
    fn decode_garbage_is_protocol_error() {
        let garbage = Payload::from_vec(vec![0xFF; 3]);
        assert!(matches!(
            MpiFrame::decode(&garbage),
            Err(MpiError::Protocol(_))
        ));
    }

    /// Frames of every variant: both contexts, extreme tags and
    /// integers, bodies from empty to past the rendezvous threshold.
    fn frames() -> impl Strategy<Value = MpiFrame> {
        let context = prop_oneof![
            Just(Context::PointToPoint),
            (0..=u64::MAX).prop_map(|seq| Context::Collective { seq }),
            (0u64..300).prop_map(|seq| Context::Collective { seq }),
        ];
        let tag = prop_oneof![Just(i32::MIN), Just(i32::MAX), Just(0), i32::MIN..i32::MAX];
        let int = || prop_oneof![Just(u64::MAX), 0u64..300, 0..=u64::MAX];
        let body = prop_oneof![0usize..64, 64usize..4096, RNDV_THRESHOLD - 8..200_001]
            .prop_flat_map(|len| (Just(len), 0u8..=255))
            .prop_map(|(len, seed)| {
                Payload::from_vec(
                    (0..len)
                        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
                        .collect(),
                )
            });
        (context, tag, int(), int(), body, 0u8..4).prop_map(|(context, tag, a, b, body, kind)| {
            match kind {
                0 => MpiFrame::Eager { context, tag, body },
                1 => MpiFrame::RndvReq {
                    context,
                    tag,
                    rndv_id: a,
                    len: b,
                },
                2 => MpiFrame::RndvCts { rndv_id: a },
                _ => MpiFrame::RndvData { rndv_id: a, body },
            }
        })
    }

    fn body_of(f: &MpiFrame) -> Option<&Payload> {
        match f {
            MpiFrame::Eager { body, .. } | MpiFrame::RndvData { body, .. } => Some(body),
            _ => None,
        }
    }

    /// A decode either fails as a protocol error or yields a frame that
    /// re-encodes to exactly the bytes it came from.
    fn canonical_or_protocol_error(bytes: &Payload) {
        match MpiFrame::decode(bytes) {
            Ok(f) => assert_eq!(f.encode(), *bytes, "accepted non-canonical bytes as {f:?}"),
            Err(e) => assert!(matches!(e, MpiError::Protocol(_)), "{e:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn encode_writes_the_bincode_bytes(frame in frames()) {
            let reference = bincode::serialize(&frame).unwrap();
            let ours = frame.encode();
            prop_assert_eq!(ours.as_slice(), &reference[..]);
            // Decoding bincode's bytes gives the frame back, its body a
            // view into the input buffer.
            let input = Payload::from_vec(reference);
            let back = MpiFrame::decode(&input).unwrap();
            prop_assert_eq!(&back, &frame);
            if let Some(body) = body_of(&back) {
                let range = input.as_slice().as_ptr_range();
                let at = body.as_slice().as_ptr();
                prop_assert!(range.start <= at && at <= range.end);
                prop_assert!(at as usize + body.len() <= range.end as usize);
            }
        }

        #[test]
        fn prefixes_and_byte_flips_never_decode_wrongly(frame in frames()) {
            let enc = frame.encode();
            // Every strict prefix (zero-copy views of the frame).
            for n in 0..enc.len() {
                canonical_or_protocol_error(&enc.slice(..n));
            }
            // Every replacement of a header byte, and of the body's first
            // and last byte: the body's other bytes are opaque, so a flip
            // there changes content, never structure.
            let head = enc.len() - body_of(&frame).map_or(0, |b| b.len());
            let mut at: Vec<usize> = (0..head).collect();
            if head < enc.len() {
                at.extend([head, enc.len() - 1]);
            }
            let mut bytes = enc.to_vec();
            for i in at {
                let orig = bytes[i];
                let alternatives: Vec<u8> = if i < head {
                    (0..=255).filter(|&b| b != orig).collect()
                } else {
                    vec![!orig]
                };
                for b in alternatives {
                    bytes[i] = b;
                    canonical_or_protocol_error(&Payload::from(&bytes[..]));
                }
                bytes[i] = orig;
            }
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // `RndvCts { rndv_id: 5 }` with the id written as two bytes:
        // bincode would read it, but it is not what the encoder writes.
        let mut bytes = MpiFrame::RndvCts { rndv_id: 5 }.encode().to_vec();
        let last = bytes.len() - 1;
        bytes[last] = 0x85;
        bytes.push(0);
        assert!(bincode::deserialize::<u64>(&[3, 0x85, 0]).is_ok());
        assert!(matches!(
            MpiFrame::decode(&Payload::from_vec(bytes)),
            Err(MpiError::Protocol(_))
        ));
    }

    #[test]
    fn selectors_match() {
        assert!(Source::Any.matches(Rank(3)));
        assert!(Source::Rank(Rank(3)).matches(Rank(3)));
        assert!(!Source::Rank(Rank(3)).matches(Rank(4)));
        assert!(Tag::Any.matches(42));
        assert!(Tag::Value(42).matches(42));
        assert!(!Tag::Value(42).matches(43));
    }

    #[test]
    fn threshold_matches_mpich_125_default() {
        assert_eq!(RNDV_THRESHOLD, 128_000);
    }
}
