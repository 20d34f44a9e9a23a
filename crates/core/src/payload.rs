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
//! memcpy per part. The handle is 24 bytes (a buffer handle plus a
//! `u32` offset and length); the sender log's size guard says why it
//! must not grow.
//!
//! Where a sent MPI frame's bytes live depends on its size. A frame
//! below [`ARENA_MIN_FRAME`] gets an exact-size allocation of its own. A
//! larger one is written by its sending rank's [`FrameArena`] into an
//! 8 MiB chunk, aligned to and advised for 2 MiB transparent huge pages,
//! behind the frames written there before it. The sender log keeps every
//! frame it sends until a checkpoint, so a 64 KiB frame in fresh small
//! pages costs sixteen page faults; in a chunk, about thirty such frames
//! share one huge-page fault. A chunk lives while any frame in it does,
//! and a full chunk whose frames have all been dropped is written again.

use bytes::{Bytes, ChunkBuf};
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

/// Frames of at least this many bytes go into a [`FrameArena`] chunk.
///
/// A smaller frame covers at most four small pages, which the allocator
/// recycles from freed frames; and a chunk lives as long as its
/// longest-lived frame, so many small frames in one chunk would let one
/// retained message pin a whole chunk.
pub const ARENA_MIN_FRAME: usize = 16 << 10;

/// An x86-64 transparent huge page: the alignment of every arena chunk,
/// and the step in which its resident memory grows.
pub const HUGE_PAGE: usize = 2 << 20;

/// Size of an arena chunk: four huge pages. A frame that does not fit in
/// what is left of a chunk starts the next one, so up to one frame's
/// size is left unused at the end of each chunk; with 64 KiB frames that
/// is 3 % of a single huge page but 0.7 % of four.
pub const ARENA_CHUNK: usize = 4 * HUGE_PAGE;

/// Where one process writes its large outgoing frames: a bump allocator
/// over huge-page chunks (see the module documentation).
///
/// A frame of [`ARENA_MIN_FRAME`] bytes or more is appended to the
/// current chunk; when it does not fit, the chunk is started over if
/// none of its frames is still alive, and replaced by a fresh one
/// otherwise (the old one is freed with its last frame). A frame larger
/// than [`ARENA_CHUNK`] gets a chunk of its own, rounded up to whole
/// [`HUGE_PAGE`]s. Smaller frames get an exact-size allocation each.
#[derive(Default)]
pub struct FrameArena {
    chunk: Option<ChunkBuf>,
}

impl FrameArena {
    /// An arena that has not allocated yet.
    pub fn new() -> Self {
        FrameArena::default()
    }

    /// The concatenation of `parts`, in this arena when it is large
    /// enough (see [`FrameArena`]), else in an allocation of its own.
    pub fn concat(&mut self, parts: &[&[u8]]) -> Payload {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total < ARENA_MIN_FRAME {
            return Payload::concat(parts);
        }
        if total > ARENA_CHUNK {
            return Payload(huge_page_chunk(total.next_multiple_of(HUGE_PAGE)).append(parts));
        }
        let fits = |c: &mut ChunkBuf| c.remaining() >= total || c.try_reclaim();
        if !self.chunk.as_mut().is_some_and(fits) {
            self.chunk = Some(huge_page_chunk(ARENA_CHUNK));
        }
        Payload(
            self.chunk
                .as_mut()
                .expect("a chunk with room")
                .append(parts),
        )
    }
}

/// A fresh chunk of `len` bytes, aligned to and advised for huge pages.
fn huge_page_chunk(len: usize) -> ChunkBuf {
    let chunk = ChunkBuf::with_capacity_aligned(len, HUGE_PAGE);
    advise_huge_pages(chunk.as_ptr(), len);
    chunk
}

/// Ask the kernel to back `len` bytes at `ptr` with transparent huge
/// pages. Where it refuses (THP disabled, an older kernel) the chunk
/// keeps small pages and nothing else changes, so the result is ignored.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(ptr: *const u8, len: usize) {
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    // SAFETY: advice about a live allocation of ours, which it neither
    // reads nor writes.
    unsafe { madvise(ptr.cast_mut(), len, MADV_HUGEPAGE) };
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_ptr: *const u8, _len: usize) {}

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

    /// Arena tests (run under Miri too, where no advice is given).
    mod arena {
        use super::super::*;

        const BIG: usize = ARENA_MIN_FRAME;

        fn addr(p: &Payload) -> usize {
            p.as_slice().as_ptr() as usize
        }

        #[test]
        fn large_frames_share_one_chunk_and_match_concat() {
            let arena = &mut FrameArena::new();
            let body = vec![7u8; BIG];
            let a = arena.concat(&[b"head", &body]);
            let b = arena.concat(&[&body[1..], b"!"]);
            assert_eq!(a, Payload::concat(&[b"head", &body]));
            assert_eq!(b, Payload::concat(&[&body[1..], b"!"]));
            assert_eq!(addr(&a) % HUGE_PAGE, 0, "a chunk starts on a huge page");
            assert_eq!(addr(&b), addr(&a) + a.len(), "bump-allocated behind it");
        }

        #[test]
        fn a_small_frame_is_an_allocation_of_its_own() {
            let arena = &mut FrameArena::new();
            let small = arena.concat(&[b"h", &[1; BIG - 2]]);
            assert_eq!(small.len(), BIG - 1);
            assert_eq!(small, Payload::concat(&[b"h", &[1; BIG - 2]]));
            let large = arena.concat(&[&[2; BIG]]);
            assert_eq!(addr(&large) % HUGE_PAGE, 0, "the small frame took no room");
            let chunk = addr(&large)..addr(&large) + ARENA_CHUNK;
            assert!(!chunk.contains(&addr(&small)));
        }

        #[test]
        fn a_frame_larger_than_a_chunk_gets_its_own() {
            let arena = &mut FrameArena::new();
            let first = arena.concat(&[&[1; BIG]]);
            let huge = arena.concat(&[&[2; 8], &vec![3; ARENA_CHUNK]]);
            assert_eq!(huge.len(), ARENA_CHUNK + 8);
            assert_eq!(&huge[..9], &[2, 2, 2, 2, 2, 2, 2, 2, 3]);
            assert_eq!(addr(&huge) % HUGE_PAGE, 0);
            let next = arena.concat(&[&[4; BIG]]);
            assert_eq!(
                addr(&next),
                addr(&first) + BIG,
                "the current chunk is untouched"
            );
        }

        #[test]
        fn a_full_chunk_is_reused_once_its_frames_are_dropped() {
            let arena = &mut FrameArena::new();
            let per_chunk = ARENA_CHUNK / BIG;
            let frames: Vec<Payload> = (0..per_chunk)
                .map(|i| arena.concat(&[&[i as u8; BIG]]))
                .collect();
            let start = addr(&frames[0]);
            let kept = frames[per_chunk - 1].clone();
            drop(frames);
            // One frame still alive: a fresh chunk, the kept frame intact.
            let fresh = arena.concat(&[&[0xAA; BIG]]);
            assert_ne!(addr(&fresh), start);
            assert!(kept[..] == *vec![(per_chunk - 1) as u8; BIG]);
            drop(kept);
            // That chunk filled with nothing kept: it is written again.
            let rest: Vec<Payload> = (1..per_chunk)
                .map(|_| arena.concat(&[&[0xBB; BIG]]))
                .collect();
            let reuse_at = addr(&fresh);
            drop((fresh, rest));
            let again = arena.concat(&[&[0xCC; BIG]]);
            assert_eq!(addr(&again), reuse_at);
            assert!(again[..] == *vec![0xCC; BIG]);
        }

        #[test]
        fn frames_are_read_on_another_thread_while_the_arena_appends() {
            let arena = &mut FrameArena::new();
            let (tx, rx) = std::sync::mpsc::channel::<Payload>();
            let reader = std::thread::spawn(move || {
                for (i, frame) in rx.iter().enumerate() {
                    assert!(frame[..] == *vec![i as u8; BIG], "frame {i} changed");
                }
            });
            // More frames than a chunk holds: the arena moves on while the
            // reader still holds frames of the first chunk.
            for i in 0..ARENA_CHUNK / BIG + 8 {
                tx.send(arena.concat(&[&[i as u8; BIG]])).unwrap();
            }
            drop(tx);
            reader.join().unwrap();
        }
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
