//! Checkpoint images.
//!
//! §4.6.1: the checkpoint of a computing node has two parts — the MPI
//! process image (Condor in the paper; a serialized application state in
//! this reproduction, see DESIGN.md) and the communication daemon's state,
//! "serializing all the message information". The daemon part is
//! [`EngineSnapshot`]; the whole node image shipped to the checkpoint
//! server is [`NodeImage`].
//!
//! Crucially the image *includes the sender log* — "the first process has
//! to restart with the copy of old messages, which are thus to be included
//! in the checkpoints" (§4.1, domino-effect avoidance).

use crate::ids::Rank;
use crate::payload::Payload;
use crate::recovery::Watermarks;
use crate::sender_log::SenderLog;
use serde::{Deserialize, Serialize};

/// The protocol-engine half of a checkpoint image.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// Rank of the checkpointed process.
    pub rank: Rank,
    /// Size of the world (number of computing processes).
    pub world: u32,
    /// Logical clock at the checkpoint.
    pub clock: u64,
    /// `HR`/`HS` watermark vectors at the checkpoint.
    pub watermarks: Watermarks,
    /// The sender-based message log (`SAVED`), kept to serve re-sends after
    /// restart without rolling this process back (domino avoidance).
    pub saved: SenderLog,
}

/// A complete checkpoint image for one computing node, shipped as an
/// [`ImageBlob`].
#[derive(Clone, Debug)]
pub struct NodeImage {
    /// The communication daemon / protocol engine state.
    pub engine: EngineSnapshot,
    /// Serialized MPI-library state (matching queues etc.), opaque here.
    pub mpi_state: Payload,
    /// Serialized application state, opaque here.
    pub app_state: Payload,
}

/// A zero-copy checkpoint image: a small bincode-encoded metadata header
/// plus the image's byte segments as *refcounted* [`Payload`] handles.
///
/// The image's bulk is the sender log (§4.1 requires the `SAVED` set
/// inside the checkpoint), so the blob never flattens it: each logged
/// payload ships as a clone of the *same* `Bytes` the sender log already
/// holds, and building the blob allocates only the metadata header. No
/// payload bytes move, and the log needs no serialized form of its own.
///
/// Segment order is fixed: every sender-log payload in `(dst, clock)`
/// order (the order [`SenderLog::iter_entries`] yields, mirrored by
/// `log_dirs` in the header), then `mpi_state`, then `app_state`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageBlob {
    /// Bincode-encoded `ImageMeta` header.
    pub meta: Payload,
    /// The image's byte segments (see segment order above).
    pub segments: Vec<Payload>,
}

/// The header of an [`ImageBlob`]: everything in a [`NodeImage`] except
/// the raw payload bytes, plus the directory locating each segment.
#[derive(Serialize, Deserialize)]
struct ImageMeta {
    rank: Rank,
    world: u32,
    clock: u64,
    watermarks: Watermarks,
    /// Per destination, the sender clocks of its logged payloads, in
    /// order — pairs with the leading segments one-to-one.
    log_dirs: Vec<(Rank, Vec<u64>)>,
    log_total_appended: u64,
    log_total_msgs: u64,
}

impl ImageBlob {
    /// A blob carrying no image (the checkpoint server's "no image
    /// stored" reply).
    pub fn empty() -> Self {
        ImageBlob {
            meta: Payload::empty(),
            segments: Vec::new(),
        }
    }

    /// Whether this blob carries no image at all.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty() && self.segments.is_empty()
    }

    /// Total bytes carried (header + all segments) — the store's byte
    /// accounting and the scheduler's transfer-cost estimate.
    pub fn len(&self) -> usize {
        self.meta.len() + self.segments.iter().map(|s| s.len()).sum::<usize>()
    }
}

impl NodeImage {
    /// Encode as an [`ImageBlob`] without copying any payload bytes: the
    /// sender log's payloads and the state blobs become refcount-bumped
    /// segments of the same underlying buffers.
    pub fn encode_blob(&self) -> ImageBlob {
        let mut log_dirs: Vec<(Rank, Vec<u64>)> = Vec::new();
        let mut segments = Vec::new();
        for (dst, clock, payload) in self.engine.saved.iter_entries() {
            match log_dirs.last_mut() {
                Some((d, clocks)) if *d == dst => clocks.push(clock),
                _ => log_dirs.push((dst, vec![clock])),
            }
            segments.push(payload.clone());
        }
        segments.push(self.mpi_state.clone());
        segments.push(self.app_state.clone());
        let meta = ImageMeta {
            rank: self.engine.rank,
            world: self.engine.world,
            clock: self.engine.clock,
            watermarks: self.engine.watermarks.clone(),
            log_dirs,
            log_total_appended: self.engine.saved.bytes_appended(),
            log_total_msgs: self.engine.saved.msgs_appended(),
        };
        ImageBlob {
            meta: Payload::from_vec(
                bincode::serialize(&meta).expect("ImageMeta serialization cannot fail"),
            ),
            segments,
        }
    }

    /// Decode an [`ImageBlob`] back into an image. The rebuilt sender log
    /// shares the blob's segment buffers — still no byte copies.
    pub fn decode_blob(blob: &ImageBlob) -> Result<Self, bincode::Error> {
        let meta: ImageMeta = bincode::deserialize(&blob.meta)?;
        let n_logged: usize = meta.log_dirs.iter().map(|(_, c)| c.len()).sum();
        if blob.segments.len() != n_logged + 2 {
            return Err(<bincode::Error as serde::de::Error>::custom(format!(
                "truncated image blob: {} segments, expected {}",
                blob.segments.len(),
                n_logged + 2
            )));
        }
        let mut segs = blob.segments.iter();
        let entries = meta.log_dirs.iter().flat_map(|(dst, clocks)| {
            clocks
                .iter()
                .map(|&c| (*dst, c, segs.next().expect("counted above").clone()))
                .collect::<Vec<_>>()
        });
        let saved = SenderLog::from_entries(entries, meta.log_total_appended, meta.log_total_msgs);
        let mpi_state = segs.next().expect("counted above").clone();
        let app_state = segs.next().expect("counted above").clone();
        Ok(NodeImage {
            engine: EngineSnapshot {
                rank: meta.rank,
                world: meta.world,
                clock: meta.clock,
                watermarks: meta.watermarks,
                saved,
            },
            mpi_state,
            app_state,
        })
    }

    /// Total encoded size in bytes (for scheduler cost estimation).
    pub fn size_bytes(&self) -> usize {
        self.encode_blob().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_roundtrip_preserves_everything() {
        let mut saved = SenderLog::new();
        saved.append(Rank(1), 0, Payload::filled(3, 16)); // clock 0 must survive
        saved.append(Rank(1), 4, Payload::filled(9, 32));
        saved.append(Rank(2), 7, Payload::filled(5, 8));
        let mut marks = Watermarks::new();
        marks.on_delivery_from(Rank(1), 3);
        marks.on_transmit_to(Rank(1), 4);
        let img = NodeImage {
            engine: EngineSnapshot {
                rank: Rank(0),
                world: 4,
                clock: 17,
                watermarks: marks,
                saved,
            },
            mpi_state: Payload::from_vec(vec![1, 2, 3]),
            app_state: Payload::from_vec(vec![4, 5]),
        };
        let blob = img.encode_blob();
        assert_eq!(blob.segments.len(), 3 + 2);
        let dec = NodeImage::decode_blob(&blob).unwrap();
        assert_eq!(dec.engine.rank, Rank(0));
        assert_eq!(dec.engine.world, 4);
        assert_eq!(dec.engine.clock, 17);
        assert_eq!(dec.engine.watermarks.hr(Rank(1)), 3);
        assert!(dec.engine.saved.get(Rank(1), 0).is_some());
        assert!(dec.engine.saved.get(Rank(1), 4).is_some());
        assert!(dec.engine.saved.get(Rank(2), 7).is_some());
        assert_eq!(dec.engine.saved.bytes_held(), 56);
        assert_eq!(dec.engine.saved.msgs_appended(), 3);
        assert_eq!(dec.mpi_state, img.mpi_state);
        assert_eq!(dec.app_state, img.app_state);
    }

    #[test]
    fn blob_encode_and_decode_share_payload_buffers() {
        // The whole point: encoding an image and decoding it back never
        // copies payload bytes — segments alias the source buffers.
        let big = Payload::filled(1, 4096);
        let mut saved = SenderLog::new();
        saved.append(Rank(1), 2, big.clone());
        let img = NodeImage {
            engine: EngineSnapshot {
                rank: Rank(0),
                world: 2,
                clock: 5,
                watermarks: Watermarks::new(),
                saved,
            },
            mpi_state: Payload::filled(2, 512),
            app_state: Payload::empty(),
        };
        let blob = img.encode_blob();
        assert_eq!(
            blob.segments[0].as_slice().as_ptr(),
            big.as_slice().as_ptr()
        );
        assert_eq!(
            blob.segments[1].as_slice().as_ptr(),
            img.mpi_state.as_slice().as_ptr()
        );
        let dec = NodeImage::decode_blob(&blob).unwrap();
        assert_eq!(
            dec.engine
                .saved
                .get(Rank(1), 2)
                .unwrap()
                .as_slice()
                .as_ptr(),
            big.as_slice().as_ptr()
        );
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let mut saved = SenderLog::new();
        saved.append(Rank(1), 1, Payload::filled(0, 8));
        let img = NodeImage {
            engine: EngineSnapshot {
                rank: Rank(0),
                world: 2,
                clock: 1,
                watermarks: Watermarks::new(),
                saved,
            },
            mpi_state: Payload::empty(),
            app_state: Payload::empty(),
        };
        let mut blob = img.encode_blob();
        blob.segments.pop();
        assert!(NodeImage::decode_blob(&blob).is_err());
        assert!(NodeImage::decode_blob(&ImageBlob::empty()).is_err());
    }

    #[test]
    fn size_reflects_sender_log() {
        let empty = NodeImage {
            engine: EngineSnapshot {
                rank: Rank(0),
                world: 2,
                clock: 0,
                watermarks: Watermarks::new(),
                saved: SenderLog::new(),
            },
            mpi_state: Payload::empty(),
            app_state: Payload::empty(),
        };
        let mut saved = SenderLog::new();
        saved.append(Rank(1), 1, Payload::filled(0, 10_000));
        let full = NodeImage {
            engine: EngineSnapshot {
                saved,
                ..empty.engine.clone()
            },
            ..empty.clone()
        };
        assert!(full.size_bytes() > empty.size_bytes() + 9_000);
    }
}
