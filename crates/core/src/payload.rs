//! Message payload wrapper.
//!
//! Payloads are reference-counted byte buffers ([`bytes::Bytes`]) so the
//! sender-based log can keep a copy of every emitted message (§4.5) without
//! duplicating the bytes in memory, while still serializing transparently
//! into checkpoint images.
//!
//! A payload is a *view* into a shared allocation: [`Payload::slice`]
//! narrows it without copying, which is how a received MPI message body
//! stays inside the wire frame it arrived in, and [`Payload::concat`]
//! builds a frame from its header and body with one allocation and one
//! memcpy per part. The handle is 24 bytes (a fat `Arc` plus a `u32`
//! offset and length); the sender log's size guard says why it must not
//! grow.

use bytes::Bytes;
use serde::de::{self, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::ops::{Deref, RangeBounds};

/// An immutable, cheaply-cloneable message payload.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Payload(Bytes);

impl Payload {
    /// An empty payload (e.g. a 0-byte ping-pong message).
    pub fn empty() -> Self {
        Payload(Bytes::new())
    }

    /// Payload from owned bytes.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Payload(Bytes::from(v))
    }

    /// Payload of `len` copies of `byte` — handy for benchmarks.
    pub fn filled(byte: u8, len: usize) -> Self {
        Payload(Bytes::from(vec![byte; len]))
    }

    /// The concatenation of `parts` in one exact-size allocation.
    pub fn concat(parts: &[&[u8]]) -> Self {
        Payload(Bytes::concat(parts))
    }

    /// A view of `range` sharing this payload's allocation (no copy).
    ///
    /// # Panics
    ///
    /// When the range is decreasing or reaches past the end.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        Payload(self.0.slice(range))
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload carries no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the raw bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Access the inner [`Bytes`].
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload(Bytes::copy_from_slice(v))
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload(b)
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload[{}B]", self.len())
    }
}

impl Serialize for Payload {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

struct PayloadVisitor;

impl<'de> Visitor<'de> for PayloadVisitor {
    type Value = Payload;

    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a byte buffer")
    }

    fn visit_bytes<E: de::Error>(self, v: &[u8]) -> Result<Payload, E> {
        Ok(Payload::from(v))
    }

    fn visit_byte_buf<E: de::Error>(self, v: Vec<u8>) -> Result<Payload, E> {
        Ok(Payload::from_vec(v))
    }

    fn visit_seq<A: de::SeqAccess<'de>>(self, mut seq: A) -> Result<Payload, A::Error> {
        let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0));
        while let Some(b) = seq.next_element::<u8>()? {
            out.push(b);
        }
        Ok(Payload::from_vec(out))
    }
}

impl<'de> Deserialize<'de> for Payload {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Payload, D::Error> {
        deserializer.deserialize_byte_buf(PayloadVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        assert!(Payload::empty().is_empty());
        let p = Payload::filled(0xAB, 16);
        assert_eq!(p.len(), 16);
        assert!(p.as_slice().iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn clone_shares_buffer() {
        let p = Payload::filled(1, 1 << 20);
        let q = p.clone();
        // Bytes clones share the allocation: identical pointers.
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
    }

    #[test]
    fn slice_and_concat_share_or_build_one_buffer() {
        let p = Payload::concat(&[&[1, 2], &[3, 4, 5]]);
        assert_eq!(&p[..], &[1, 2, 3, 4, 5]);
        let body = p.slice(2..);
        assert_eq!(&body[..], &[3, 4, 5]);
        assert_eq!(body.as_slice().as_ptr(), p[2..].as_ptr());
        assert_eq!(body, Payload::from_vec(vec![3, 4, 5]));
    }

    #[test]
    fn serde_roundtrip_bincode() {
        let p = Payload::from_vec(vec![1, 2, 3, 4, 5]);
        let enc = bincode::serialize(&p).unwrap();
        let dec: Payload = bincode::deserialize(&enc).unwrap();
        assert_eq!(p, dec);
    }

    #[test]
    fn deref_as_slice() {
        let p = Payload::from_vec(vec![9, 8, 7]);
        assert_eq!(&p[..], &[9, 8, 7]);
    }
}
