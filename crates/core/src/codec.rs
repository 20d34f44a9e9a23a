//! The vendored bincode's bytes, written and read by hand.
//!
//! Two codecs sit on every message's path: the MPI frame
//! (`mvr_mpi::wire`) inside each application message, and, in the socket
//! deployment, the data-plane envelopes of `mvr_runtime::proc::wire`
//! around it. Both write exactly what `bincode::serialize` would write,
//! without its serde value tree, and share the primitives in this module.
//!
//! bincode encodes a serde value tree: an enum variant is a tag byte
//! ([`T_VARIANT_UNIT`], [`T_VARIANT_NEWTYPE`] or [`T_VARIANT_TUPLE`]), its
//! index as a varint and its name as a length-prefixed string; a struct
//! variant then carries its field count and its fields in declaration
//! order, a newtype variant its one value. A struct is [`T_SEQ`] plus its
//! field count and fields; a sequence is [`T_SEQ`] plus its length and
//! items. Every unsigned integer (newtype wrappers such as `Rank`
//! included) is [`T_U64`] plus a LEB128 varint, an `i32` is [`T_I64`]
//! plus the zigzagged varint, a byte body is [`T_BYTES`] plus its varint
//! length and the raw bytes.
//!
//! A message is built as a [`Head`] on the stack, then joined with its
//! body in one buffer. The MPI encoders join them in the sending
//! process's [`FrameArena`] ([`Head::with_body`]): a frame of
//! `ARENA_MIN_FRAME` bytes or more lands in a huge-page chunk shared
//! with the frames sent before it, a smaller one in an exact-size
//! allocation ([`Head::finish`] and [`Head::into_vec`] always make one).
//! [`Head::with_payload`] returns a body that already sits behind its
//! head as that frame (`bytes::Bytes::preceded_by`), which is how a
//! rendezvous body is copied once.
//!
//! [`Reader`] is strict: it accepts only what an [`Encoder`] writes
//! (minimal varints, `u32` fields within range, the exact variant name),
//! so whatever a codec built on it decodes re-encodes to the same bytes.

use crate::payload::{FrameArena, Payload};

/// Tag of an unsigned integer.
pub const T_U64: u8 = 3;
/// Tag of a signed integer (zigzag varint).
pub const T_I64: u8 = 4;
/// Tag of a byte body.
pub const T_BYTES: u8 = 8;
/// Tag of a sequence, and of a struct's positional fields.
pub const T_SEQ: u8 = 11;
/// Tag of a unit variant.
pub const T_VARIANT_UNIT: u8 = 14;
/// Tag of a newtype variant.
pub const T_VARIANT_NEWTYPE: u8 = 15;
/// Tag of a struct (or tuple) variant.
pub const T_VARIANT_TUPLE: u8 = 16;

/// Capacity of a [`Head`]: room for the fixed part of any message either
/// codec writes (the longest, an MPI `RndvReq` in a collective context
/// with every integer at its widest, takes 64 bytes).
pub const MAX_HEAD: usize = 64;

/// Write side of the format. Implementors supply [`put`](Encoder::put);
/// the rest is the format.
pub trait Encoder {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Append one raw byte.
    #[inline]
    fn byte(&mut self, b: u8) {
        self.put(&[b]);
    }

    /// A LEB128 varint.
    #[inline]
    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.byte(n as u8 | 0x80);
            n >>= 7;
        }
        self.byte(n as u8);
    }

    /// A variant's tag, index and length-prefixed name.
    #[inline]
    fn variant(&mut self, tag: u8, idx: usize, name: &str) {
        self.byte(tag);
        self.varint(idx as u64);
        self.varint(name.len() as u64);
        self.put(name.as_bytes());
    }

    /// The opening of a struct variant with `fields` fields.
    #[inline]
    fn struct_variant(&mut self, idx: usize, name: &str, fields: u8) {
        self.variant(T_VARIANT_TUPLE, idx, name);
        self.byte(fields);
    }

    /// The opening of a sequence of `len` items (or a struct of `len`
    /// fields).
    #[inline]
    fn seq(&mut self, len: usize) {
        self.byte(T_SEQ);
        self.varint(len as u64);
    }

    /// An unsigned integer.
    #[inline]
    fn u64(&mut self, n: u64) {
        self.byte(T_U64);
        self.varint(n);
    }

    /// A signed 32-bit integer.
    #[inline]
    fn i32(&mut self, n: i32) {
        let n = i64::from(n);
        self.byte(T_I64);
        self.varint(((n << 1) ^ (n >> 63)) as u64);
    }

    /// The tag and length of a byte body of `len` bytes; the body follows.
    #[inline]
    fn body_len(&mut self, len: usize) {
        self.byte(T_BYTES);
        self.varint(len as u64);
    }
}

impl Encoder for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
}

/// A message's fixed part built on the stack, then joined with its body
/// in one allocation: an exact-size one, or a place in a [`FrameArena`]
/// chunk for a large frame.
pub struct Head {
    buf: [u8; MAX_HEAD],
    len: usize,
}

impl Default for Head {
    #[inline]
    fn default() -> Self {
        Head {
            buf: [0; MAX_HEAD],
            len: 0,
        }
    }
}

impl Encoder for Head {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }
}

impl Head {
    /// The bytes written so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The head followed by `body` as a byte field, in one shared buffer
    /// (in `arena` when the frame is large enough).
    #[inline]
    pub fn with_body(mut self, body: &[u8], arena: &mut FrameArena) -> Payload {
        self.body_len(body.len());
        arena.concat(&[self.as_slice(), body])
    }

    /// [`with_body`](Head::with_body) for a shared body. A body that was
    /// written right behind this very head, as the tail of its frame, is
    /// that frame again, without a copy.
    #[inline]
    pub fn with_payload(mut self, body: &Payload, arena: &mut FrameArena) -> Payload {
        self.body_len(body.len());
        match body.bytes().preceded_by(self.as_slice()) {
            Some(frame) => Payload::from(frame),
            None => arena.concat(&[self.as_slice(), body]),
        }
    }

    /// The head alone, as a shared buffer.
    #[inline]
    pub fn finish(self) -> Payload {
        Payload::concat(&[self.as_slice()])
    }

    /// The head followed by `tail` (raw, already encoded), in one
    /// exact-size `Vec`.
    #[inline]
    pub fn into_vec(self, tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len + tail.len());
        out.extend_from_slice(self.as_slice());
        out.extend_from_slice(tail);
        out
    }
}

/// Result of a [`Reader`] step: the reason is a static string, so a
/// rejected frame costs no allocation until it is reported.
pub type Parse<T> = Result<T, &'static str>;

/// A strict reader of canonical bytes out of a shared frame: any byte
/// sequence an [`Encoder`] would not produce is an error, and a byte
/// body comes out as a view of the frame, not a copy.
pub struct Reader<'a> {
    frame: &'a Payload,
    /// `frame`'s bytes, borrowed once.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `frame`.
    #[inline]
    pub fn new(frame: &'a Payload) -> Self {
        Reader {
            frame,
            bytes: frame.as_slice(),
            pos: 0,
        }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// One raw byte.
    #[inline]
    pub fn byte(&mut self) -> Parse<u8> {
        let b = *self.bytes.get(self.pos).ok_or("truncated")?;
        self.pos += 1;
        Ok(b)
    }

    /// One raw byte that must be `want`.
    #[inline]
    pub fn expect(&mut self, want: u8) -> Parse<()> {
        if self.byte()? == want {
            Ok(())
        } else {
            Err("unexpected tag byte")
        }
    }

    /// A minimal LEB128 varint of at most ten bytes.
    #[inline]
    pub fn varint(&mut self) -> Parse<u64> {
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

    /// A variant's index and name, after its tag; returns the index.
    #[inline]
    pub fn name(&mut self, names: &[&str]) -> Parse<usize> {
        let idx = usize::try_from(self.varint()?).map_err(|_| "bad variant index")?;
        let name = names.get(idx).ok_or("unknown variant")?;
        if self.varint()? != name.len() as u64 {
            return Err("variant name mismatch");
        }
        let end = self.pos + name.len();
        if self.bytes.get(self.pos..end) != Some(name.as_bytes()) {
            return Err("variant name mismatch");
        }
        self.pos = end;
        Ok(idx)
    }

    /// A variant's tag, index and name; returns the tag and the index.
    #[inline]
    pub fn variant(&mut self, names: &[&str]) -> Parse<(u8, usize)> {
        let tag = self.byte()?;
        Ok((tag, self.name(names)?))
    }

    /// The opening of struct variant `idx` of `names`, with `fields`
    /// fields, written by [`Encoder::struct_variant`].
    #[inline]
    pub fn struct_variant(&mut self, names: &[&str], fields: &[u8]) -> Parse<usize> {
        self.expect(T_VARIANT_TUPLE)?;
        let idx = self.name(names)?;
        self.expect(*fields.get(idx).ok_or("unknown variant")?)?;
        Ok(idx)
    }

    /// The opening of a sequence; returns its length.
    #[inline]
    pub fn seq(&mut self) -> Parse<u64> {
        self.expect(T_SEQ)?;
        self.varint()
    }

    /// The opening of a struct of exactly `fields` fields.
    #[inline]
    pub fn fields(&mut self, fields: u8) -> Parse<()> {
        self.expect(T_SEQ)?;
        self.expect(fields)
    }

    /// An unsigned integer.
    #[inline]
    pub fn u64(&mut self) -> Parse<u64> {
        self.expect(T_U64)?;
        self.varint()
    }

    /// An unsigned integer that must fit a `u32` field.
    #[inline]
    pub fn u32(&mut self) -> Parse<u32> {
        u32::try_from(self.u64()?).map_err(|_| "u32 field out of range")
    }

    /// A signed 32-bit integer.
    #[inline]
    pub fn i32(&mut self) -> Parse<i32> {
        self.expect(T_I64)?;
        let z = u32::try_from(self.varint()?).map_err(|_| "i32 out of range")?;
        Ok(((z >> 1) as i32) ^ -((z & 1) as i32))
    }

    /// A byte body, returned as a view of the frame: no copy.
    #[inline]
    pub fn body(&mut self) -> Parse<Payload> {
        self.expect(T_BYTES)?;
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err("body truncated");
        }
        let start = self.pos;
        self.pos += len as usize;
        Ok(self.frame.slice(start..self.pos))
    }

    /// The end of the message: no bytes may trail it.
    #[inline]
    pub fn finish(&self) -> Parse<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err("trailing bytes")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::ARENA_MIN_FRAME;
    use serde::Serialize;

    /// Each primitive writes bincode's bytes for the value it stands for.
    #[test]
    fn primitives_write_the_bincode_bytes() {
        let check = |ours: Vec<u8>, reference: Vec<u8>| assert_eq!(ours, reference);
        for n in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut v = Vec::new();
            v.u64(n);
            check(v, bincode::serialize(&n).unwrap());
        }
        for n in [0i32, -1, 1, i32::MIN, i32::MAX] {
            let mut v = Vec::new();
            v.i32(n);
            check(v, bincode::serialize(&n).unwrap());
        }
        let arena = &mut FrameArena::new();
        for len in [3, ARENA_MIN_FRAME] {
            let body = Payload::filled(9, len);
            let reference = bincode::serialize(&body).unwrap();
            check(
                Head::default().with_body(&body, arena).to_vec(),
                reference.clone(),
            );
            // A body written behind its head comes back as its frame.
            let frame = Head::default().with_payload(&body, arena);
            check(frame.to_vec(), reference);
            let tail = frame.slice(frame.len() - len..);
            let again = Head::default().with_payload(&tail, arena);
            assert_eq!(again.as_slice().as_ptr(), frame.as_slice().as_ptr());
        }
        #[derive(Serialize)]
        enum E {
            A,
            B(u64),
            C { x: u64, y: u64 },
        }
        let mut v = Vec::new();
        v.variant(T_VARIANT_UNIT, 0, "A");
        check(v, bincode::serialize(&E::A).unwrap());
        let mut v = Vec::new();
        v.variant(T_VARIANT_NEWTYPE, 1, "B");
        v.u64(7);
        check(v, bincode::serialize(&E::B(7)).unwrap());
        let mut h = Head::default();
        h.struct_variant(2, "C", 2);
        h.u64(1);
        h.u64(2);
        check(
            h.as_slice().to_vec(),
            bincode::serialize(&E::C { x: 1, y: 2 }).unwrap(),
        );
    }

    #[test]
    fn reader_is_strict() {
        let read = |bytes: &[u8]| Reader::new(&Payload::from(bytes)).u64();
        assert_eq!(read(&[T_U64, 0x85, 0x01]), Ok(133));
        assert_eq!(read(&[T_U64, 0x85, 0x00]), Err("overlong varint"));
        assert_eq!(read(&[T_U64, 0x80]), Err("truncated"));
        let mut ten = vec![T_U64];
        ten.extend([0xff; 9]);
        ten.push(0x02);
        assert_eq!(read(&ten), Err("varint overflow"));
        let wide = Payload::from_vec(vec![T_U64, 0x80, 0x80, 0x80, 0x80, 0x10]);
        assert_eq!(Reader::new(&wide).u32(), Err("u32 field out of range"));
        let mut r = Reader::new(&wide);
        assert_eq!(r.u64(), Ok(1 << 32));
        assert_eq!(r.finish(), Ok(()));
    }
}
