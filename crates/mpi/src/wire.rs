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
//! eager send copies the caller's slice once into its frame
//! ([`encode_eager`]), a rendezvous send once into its data frame
//! ([`rndv_data_body`]), and [`MpiFrame::decode`] hands the body out as a
//! slice of the delivered frame, without copying. Every encoder writes
//! into the sending process's [`FrameArena`], which puts a frame of
//! `ARENA_MIN_FRAME` bytes or more into a huge-page chunk
//! (`mvr_core::payload`). The decoder is strict:
//! it accepts only what the encoder writes, so a frame that decodes
//! re-encodes to the same bytes.

use crate::error::{MpiError, MpiResult};
use mvr_core::codec::{Encoder, Head, Parse, Reader, T_VARIANT_TUPLE, T_VARIANT_UNIT};
use mvr_core::{FrameArena, Payload};
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
// The codec: the vendored bincode's bytes, written by hand with the
// primitives of `mvr_core::codec` (which describes the format).
// ---------------------------------------------------------------------

/// Variant names of [`MpiFrame`] and [`Context`], by variant index.
const FRAME_VARIANTS: [&str; 4] = ["Eager", "RndvReq", "RndvCts", "RndvData"];
/// Field counts of the [`MpiFrame`] variants, by variant index.
const FRAME_FIELDS: [u8; 4] = [3, 4, 1, 2];
const CONTEXT_VARIANTS: [&str; 2] = ["PointToPoint", "Collective"];

/// The header of frame variant `idx`.
fn head(idx: usize) -> Head {
    let mut h = Head::default();
    h.struct_variant(idx, FRAME_VARIANTS[idx], FRAME_FIELDS[idx]);
    h
}

fn put_context(h: &mut Head, c: Context) {
    match c {
        Context::PointToPoint => h.variant(T_VARIANT_UNIT, 0, CONTEXT_VARIANTS[0]),
        Context::Collective { seq } => {
            h.struct_variant(1, CONTEXT_VARIANTS[1], 1);
            h.u64(seq);
        }
    }
}

/// The head of an eager frame.
fn eager_head(context: Context, tag: i32) -> Head {
    let mut h = head(0);
    put_context(&mut h, context);
    h.i32(tag);
    h
}

/// The head of a rendezvous data frame.
fn rndv_data_head(rndv_id: u64) -> Head {
    let mut h = head(3);
    h.u64(rndv_id);
    h
}

/// Encode an eager frame straight from the caller's buffer: the one copy
/// of the body a send makes.
pub fn encode_eager(context: Context, tag: i32, body: &[u8], arena: &mut FrameArena) -> Payload {
    eager_head(context, tag).with_body(body, arena)
}

/// The body of rendezvous send `rndv_id`, copied once from the caller's
/// buffer as the tail of its data frame: encoding
/// `MpiFrame::RndvData { rndv_id, body }` later returns that frame
/// without copying the body again.
pub fn rndv_data_body(rndv_id: u64, body: &[u8], arena: &mut FrameArena) -> Payload {
    let frame = rndv_data_head(rndv_id).with_body(body, arena);
    frame.slice(frame.len() - body.len()..)
}

fn read_context(r: &mut Reader<'_>) -> Parse<Context> {
    match r.variant(&CONTEXT_VARIANTS)? {
        (T_VARIANT_UNIT, 0) => Ok(Context::PointToPoint),
        (T_VARIANT_TUPLE, 1) => {
            r.expect(1)?;
            Ok(Context::Collective { seq: r.u64()? })
        }
        _ => Err("bad context"),
    }
}

fn read_frame(r: &mut Reader<'_>) -> Parse<MpiFrame> {
    let frame = match r.struct_variant(&FRAME_VARIANTS, &FRAME_FIELDS)? {
        0 => MpiFrame::Eager {
            context: read_context(r)?,
            tag: r.i32()?,
            body: r.body()?,
        },
        1 => MpiFrame::RndvReq {
            context: read_context(r)?,
            tag: r.i32()?,
            rndv_id: r.u64()?,
            len: r.u64()?,
        },
        2 => MpiFrame::RndvCts { rndv_id: r.u64()? },
        _ => MpiFrame::RndvData {
            rndv_id: r.u64()?,
            body: r.body()?,
        },
    };
    r.finish()?;
    Ok(frame)
}

impl MpiFrame {
    /// The message body this frame carries, if any (the handshake frames
    /// carry none).
    pub fn body(&self) -> Option<&Payload> {
        match self {
            MpiFrame::Eager { body, .. } | MpiFrame::RndvData { body, .. } => Some(body),
            MpiFrame::RndvReq { .. } | MpiFrame::RndvCts { .. } => None,
        }
    }

    /// Serialize for the channel, into `arena`. A body that is already
    /// the tail of this very frame (a [`rndv_data_body`], or the body of
    /// a decoded frame) is not copied: the frame is returned as it is.
    pub fn encode(&self, arena: &mut FrameArena) -> Payload {
        match self {
            MpiFrame::Eager { context, tag, body } => {
                eager_head(*context, *tag).with_payload(body, arena)
            }
            MpiFrame::RndvReq {
                context,
                tag,
                rndv_id,
                len,
            } => {
                let mut h = head(1);
                put_context(&mut h, *context);
                h.i32(*tag);
                h.u64(*rndv_id);
                h.u64(*len);
                h.finish()
            }
            MpiFrame::RndvCts { rndv_id } => {
                let mut h = head(2);
                h.u64(*rndv_id);
                h.finish()
            }
            MpiFrame::RndvData { rndv_id, body } => {
                rndv_data_head(*rndv_id).with_payload(body, arena)
            }
        }
    }

    /// Deserialize from the channel. A body is a view into `bytes`.
    pub fn decode(bytes: &Payload) -> MpiResult<Self> {
        read_frame(&mut Reader::new(bytes))
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
        let arena = &mut FrameArena::new();
        for f in frames {
            let enc = f.encode(arena);
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

    /// A decode either fails as a protocol error or yields a frame that
    /// re-encodes to exactly the bytes it came from.
    fn canonical_or_protocol_error(bytes: &Payload) {
        match MpiFrame::decode(bytes) {
            Ok(f) => assert_eq!(
                f.encode(&mut FrameArena::new()),
                *bytes,
                "accepted non-canonical bytes as {f:?}"
            ),
            Err(e) => assert!(matches!(e, MpiError::Protocol(_)), "{e:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn encode_writes_the_bincode_bytes(frame in frames()) {
            let reference = bincode::serialize(&frame).unwrap();
            let ours = frame.encode(&mut FrameArena::new());
            prop_assert_eq!(ours.as_slice(), &reference[..]);
            // Decoding bincode's bytes gives the frame back, its body a
            // view into the input buffer.
            let input = Payload::from_vec(reference);
            let back = MpiFrame::decode(&input).unwrap();
            prop_assert_eq!(&back, &frame);
            if let Some(body) = back.body() {
                let range = input.as_slice().as_ptr_range();
                let at = body.as_slice().as_ptr();
                prop_assert!(range.start <= at && at <= range.end);
                prop_assert!(at as usize + body.len() <= range.end as usize);
            }
        }

        #[test]
        fn prefixes_and_byte_flips_never_decode_wrongly(frame in frames()) {
            let enc = frame.encode(&mut FrameArena::new());
            // Every strict prefix (zero-copy views of the frame).
            for n in 0..enc.len() {
                canonical_or_protocol_error(&enc.slice(..n));
            }
            // Every replacement of a header byte, and of the body's first
            // and last byte: the body's other bytes are opaque, so a flip
            // there changes content, never structure.
            let head = enc.len() - frame.body().map_or(0, |b| b.len());
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
        let mut bytes = MpiFrame::RndvCts { rndv_id: 5 }
            .encode(&mut FrameArena::new())
            .to_vec();
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
    fn a_rendezvous_body_is_copied_once_and_encodes_as_its_frame() {
        let arena = &mut FrameArena::new();
        let data: Vec<u8> = (0..RNDV_THRESHOLD + 5).map(|i| i as u8).collect();
        let body = rndv_data_body(9, &data, arena);
        assert_eq!(body.as_slice(), &data[..]);
        let frame = MpiFrame::RndvData {
            rndv_id: 9,
            body: body.clone(),
        };
        let enc = frame.encode(arena);
        assert_eq!(enc.to_vec(), bincode::serialize(&frame).unwrap());
        let body_at = enc.len() - data.len();
        assert_eq!(
            enc[body_at..].as_ptr(),
            body.as_slice().as_ptr(),
            "no second copy"
        );
        // Under another id the bytes before the body do not match: copied.
        let other = MpiFrame::RndvData { rndv_id: 10, body };
        assert_eq!(
            other.encode(arena).to_vec(),
            bincode::serialize(&other).unwrap()
        );
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
