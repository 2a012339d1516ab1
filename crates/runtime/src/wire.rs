//! Binary wire format for protocol messages.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [ type: u8 ][ step: u64 ][ len: u32 ][ payload: f32 × len ]
//! ```
//!
//! This plays the role of the paper's protocol-buffer encoding: compact,
//! explicit, and — crucially for a Byzantine setting — every field is
//! validated on decode. A malformed frame from a Byzantine peer yields a
//! [`WireError`], never a panic.
//!
//! Each hop converts a vector once. Encoding writes the payload straight
//! from the tensor's borrowed buffer into a recycled scratch buffer, and
//! [`encode_shared`] then copies the frame once into the `Arc<[u8]>` that a
//! broadcast fans out to every receiver. [`decode`] converts the payload
//! straight into the tensor's shared buffer: one allocation, one pass.
//!
//! Both transports (DESIGN.md §7) share this codec. The channel transport
//! moves whole frames, so [`decode`] alone suffices; the TCP transport sees
//! an undelimited byte stream, so each frame travels behind a `u32`
//! length prefix and [`StreamDecoder`] re-assembles frames incrementally.
//! It reads from the socket straight into its own buffer
//! ([`StreamDecoder::read_from`]), sized by what the current frame still
//! needs, and yields each frame as a borrow of that buffer, which the
//! reader decodes in place. The prefix is validated against
//! [`MAX_FRAME_BYTES`] *before* any allocation — a Byzantine peer cannot
//! make a receiver reserve gigabytes by lying about the length. On the
//! send side [`write_frames`] flushes whole batches of prefixed frames per
//! vectored syscall.

use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

use tensor::Tensor;

use crate::pool::BufPool;

/// Message type tags.
const TAG_MODEL: u8 = 1;
const TAG_GRADIENT: u8 = 2;
const TAG_EXCHANGE: u8 = 3;

/// Frame header size: tag + step + payload length.
const HEADER: usize = 1 + 8 + 4;

/// Hard cap on a frame's element count (2^26 ≈ 67M coordinates, ~38× the
/// paper's d ≈ 1.75M — far above any real model here, far below anything
/// that could exhaust memory).
pub const MAX_ELEMS: u32 = 1 << 26;

/// Hard cap on a whole frame's size in bytes, enforced by both [`decode`]
/// (on the element count) and [`StreamDecoder`] (on the stream-level
/// length prefix, before buffering).
pub const MAX_FRAME_BYTES: usize = HEADER + MAX_ELEMS as usize * 4;

/// The protocol message the codec carries — the node machines' own message
/// type, so a decoded frame feeds a machine (and a machine's send reaches
/// the wire) without translation.
pub use guanyu::node::NodeMsg as WireMsg;

fn tag(msg: &WireMsg) -> u8 {
    match msg {
        WireMsg::Model { .. } => TAG_MODEL,
        WireMsg::Gradient { .. } => TAG_GRADIENT,
        WireMsg::Exchange { .. } => TAG_EXCHANGE,
    }
}

/// Decoding failures (malformed or truncated frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame is shorter than its header or declared payload.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// Unknown message-type tag.
    BadTag(u8),
    /// The declared payload length is implausible (> [`MAX_ELEMS`]).
    LengthOutOfRange(u32),
    /// A stream-level length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: need {needed} bytes, have {available}")
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::LengthOutOfRange(n) => write!(f, "payload length {n} out of range"),
            WireError::FrameTooLarge(n) => {
                write!(f, "stream frame of {n} bytes exceeds cap {MAX_FRAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Fills `buf` (cleared first) with one frame: `tag`/`step` header plus
/// `data` as the payload. All encode entry points funnel through this.
fn encode_parts(tag: u8, step: u64, data: &[f32], buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(HEADER + data.len() * 4);
    buf.push(tag);
    buf.extend_from_slice(&step.to_le_bytes());
    buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
    // Size first, then fill fixed-width chunks: this loop vectorises where
    // a per-float `extend_from_slice` does not.
    buf.resize(HEADER + data.len() * 4, 0);
    for (out, v) in buf[HEADER..].chunks_exact_mut(4).zip(data) {
        out.copy_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a message into `buf` (cleared first), straight from the
/// message's borrowed tensor buffer. Returns nothing; `buf` holds exactly
/// one frame afterwards.
pub fn encode_into(msg: &WireMsg, buf: &mut Vec<u8>) {
    encode_parts(tag(msg), msg.step(), msg.vector().as_slice(), buf);
}

/// Encodes a message into a fresh frame.
pub fn encode(msg: &WireMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(msg, &mut buf);
    buf
}

/// Encodes a message into an `Arc`-shared frame through a recycled
/// [`BufPool`] scratch buffer: the fill runs in pooled memory and only the
/// final right-sized `Arc<[u8]>` allocation (and the copy into it) remains
/// per message. Both transports encode through this (one pool per mesh),
/// so a broadcast costs one encode + one shared allocation however many
/// receivers fan out.
pub fn encode_shared(msg: &WireMsg, pool: &BufPool) -> Arc<[u8]> {
    encode_range_shared(msg, 0..msg.len(), pool)
}

/// Encodes coordinates `range` of the message's vector into an
/// `Arc`-shared frame through a recycled pool scratch buffer — the scatter
/// path of the sharded gradient plane (DESIGN.md §9). The payload is read
/// straight off the original tensor's subslice, so no intermediate
/// per-shard tensor is ever materialised; the receiver decodes a normal
/// message of length `range.len()` and cannot tell the difference from an
/// unsharded send of that slice. One encode + one shared allocation per
/// shard group however many group members fan out, exactly like
/// [`encode_shared`] for the unsharded plane.
///
/// # Panics
///
/// Panics when `range` does not fit the carried vector.
pub fn encode_range_shared(
    msg: &WireMsg,
    range: std::ops::Range<usize>,
    pool: &BufPool,
) -> Arc<[u8]> {
    let mut scratch = pool.get();
    let data = &msg.vector().as_slice()[range];
    encode_parts(tag(msg), msg.step(), data, &mut scratch);
    let frame: Arc<[u8]> = scratch.as_slice().into();
    pool.put(scratch);
    frame
}

/// Decodes a borrowed frame.
///
/// # Errors
///
/// Returns [`WireError`] for truncated frames, unknown tags or implausible
/// payload lengths.
pub fn decode(frame: &[u8]) -> Result<WireMsg, WireError> {
    if frame.len() < HEADER {
        return Err(WireError::Truncated {
            needed: HEADER,
            available: frame.len(),
        });
    }
    let tag = frame[0];
    let step = u64::from_le_bytes(frame[1..9].try_into().expect("8 header bytes"));
    let len = u32::from_le_bytes(frame[9..13].try_into().expect("4 header bytes"));
    if len > MAX_ELEMS {
        return Err(WireError::LengthOutOfRange(len));
    }
    let need = len as usize * 4;
    let payload = &frame[HEADER..];
    if payload.len() < need {
        return Err(WireError::Truncated {
            needed: HEADER + need,
            available: frame.len(),
        });
    }
    let variant: fn(u64, Tensor) -> WireMsg = match tag {
        TAG_MODEL => |step, params| WireMsg::Model { step, params },
        TAG_GRADIENT => |step, grad| WireMsg::Gradient { step, grad },
        TAG_EXCHANGE => |step, params| WireMsg::Exchange { step, params },
        t => return Err(WireError::BadTag(t)),
    };
    // Straight into the tensor's shared buffer: `chunks_exact` reports its
    // exact length, so the collect allocates once and converts in one pass.
    let vector = payload[..need]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunks")))
        .collect();
    Ok(variant(step, vector))
}

/// Incremental decoder for a length-prefixed byte *stream* of frames, as
/// carried over TCP:
///
/// ```text
/// [ nbytes: u32 ][ frame: nbytes bytes ] [ nbytes: u32 ][ frame ] …
/// ```
///
/// Fill it straight from a socket with [`read_from`](Self::read_from) (or
/// feed arbitrary chunks with [`extend`](Self::extend) — TCP delivers bytes
/// at whatever granularity it likes) and drain complete frames with
/// [`next_frame`](Self::next_frame). The decoder is *fallible, never
/// panicking*: an over-cap length prefix poisons the stream with
/// [`WireError::FrameTooLarge`] before a single payload byte is buffered —
/// after that error the connection cannot be re-synchronised and must be
/// closed (the Byzantine-peer convention, DESIGN.md §7). A frame that is
/// framed correctly but does not [`decode`] leaves the stream intact.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Initialised storage: bytes `start..end` are pending. It grows only
    /// when the pending bytes plus the next input do not fit even after
    /// moving them to the front, and never shrinks.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    /// End of the bytes received so far.
    end: usize,
}

/// Stream-level length prefix size.
const PREFIX: usize = 4;

/// What a [`StreamDecoder::read_from`] asks for beyond the end of the frame
/// in progress: room for the next frame's prefix and a few small frames in
/// the same read, while a link's buffer holds at most one frame, its
/// prefix, and this much.
pub const READ_SLACK: usize = 16 * 1024;

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `n` bytes after the pending ones, made room for: the pending
    /// bytes move to the front before the buffer grows, and the buffer
    /// grows to exactly what is needed.
    fn room(&mut self, n: usize) -> &mut [u8] {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.end + n > self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end + n > self.buf.len() {
            self.buf.reserve_exact(self.end + n - self.buf.len());
            self.buf.resize(self.end + n, 0);
        }
        &mut self.buf[self.end..self.end + n]
    }

    /// Appends raw bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.room(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// How many bytes the next [`read_from`](Self::read_from) asks for:
    /// what the frame in progress still lacks (its prefix first), plus
    /// [`READ_SLACK`]. A read that returns fewer has drained the source
    /// for now.
    pub fn read_len(&self) -> usize {
        let avail = &self.buf[self.start..self.end];
        let missing = match avail.get(..PREFIX) {
            None => PREFIX - avail.len(),
            Some(prefix) => {
                let nbytes = u32::from_le_bytes(prefix.try_into().expect("4 prefix bytes"));
                // An over-cap prefix reads nothing more for itself:
                // `next_frame` rejects it.
                match nbytes as usize {
                    n if n > MAX_FRAME_BYTES => 0,
                    n => (PREFIX + n).saturating_sub(avail.len()),
                }
            }
        };
        missing + READ_SLACK
    }

    /// One `read` from `src` straight into the decoder's own buffer, of
    /// [`read_len`](Self::read_len) bytes at most. Returns the bytes read;
    /// `Ok(0)` is end of stream.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns; nothing is appended then.
    pub fn read_from<R: Read + ?Sized>(&mut self, src: &mut R) -> std::io::Result<usize> {
        let want = self.read_len();
        let k = src.read(self.room(want))?;
        self.end += k;
        Ok(k)
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Bytes of buffer the decoder holds, consumed or not.
    pub fn footprint(&self) -> usize {
        self.buf.capacity()
    }

    /// Pops the next complete frame's bytes, `Ok(None)` when more input is
    /// needed. The frame is *borrowed straight from the re-assembly
    /// buffer* — no per-frame copy; the receiver decodes it before the
    /// next [`read_from`](Self::read_from) or [`extend`](Self::extend) may
    /// move the buffer's contents.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] when the length prefix exceeds
    /// [`MAX_FRAME_BYTES`]. The stream is unrecoverable after that error.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < PREFIX {
            return Ok(None);
        }
        let nbytes = u32::from_le_bytes(avail[..PREFIX].try_into().expect("4 prefix bytes"));
        if nbytes as usize > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge(nbytes));
        }
        let total = PREFIX + nbytes as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame_start = self.start + PREFIX;
        let frame_end = self.start + total;
        self.start = frame_end;
        Ok(Some(&self.buf[frame_start..frame_end]))
    }

    /// Pops and decodes the next complete message (frame re-assembly plus
    /// [`decode`] in one step). A codec error consumes its frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the prefix check or the frame codec.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, WireError> {
        match self.next_frame()? {
            Some(frame) => decode(frame).map(Some),
            None => Ok(None),
        }
    }
}

/// Length-prefixes one already-encoded frame for the stream layer (the
/// inverse of [`StreamDecoder`]). A broadcast encodes the frame once and
/// each per-peer writer prefixes it independently.
pub fn prefix_frame(frame: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(PREFIX + frame.len());
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Hard ceiling on iovecs per `write_vectored` call (Linux caps a single
/// `writev` at `IOV_MAX` = 1024 entries; stay well under it).
const MAX_IOV: usize = 512;

/// Writes a whole batch of frames as one length-prefixed stream burst:
/// every frame's `u32` prefix is staged in the reused `scratch` buffer and
/// prefixes + frame bodies go to the socket through as few
/// [`write_vectored`](Write::write_vectored) calls as the OS allows —
/// frame bodies are gathered zero-copy from their shared buffers, never
/// copied into a staging area.
///
/// The on-wire byte sequence is **exactly** what prefixing and
/// `write_all`-ing each frame individually would produce (the
/// `wire_fuzz` proptests pin this against arbitrary partial-write
/// behaviour), so batching is invisible to the receiving
/// [`StreamDecoder`].
///
/// # Errors
///
/// Any I/O error from the underlying writer; a zero-length vectored write
/// surfaces as [`std::io::ErrorKind::WriteZero`]. The stream position is
/// unspecified after an error — treat the link as severed.
pub fn write_frames<W: Write + ?Sized>(
    out: &mut W,
    frames: &[Arc<[u8]>],
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    let mut total = 0usize;
    for f in frames {
        scratch.extend_from_slice(&(f.len() as u32).to_le_bytes());
        total += PREFIX + f.len();
    }
    let mut written = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity((frames.len() * 2).min(MAX_IOV));
    while written < total {
        // Rebuild the iovec list past the bytes already on the wire: a
        // partial write may stop anywhere, including mid-prefix.
        slices.clear();
        let mut skip = written;
        'gather: for (i, f) in frames.iter().enumerate() {
            for part in [&scratch[i * PREFIX..(i + 1) * PREFIX], &f[..]] {
                if skip >= part.len() {
                    skip -= part.len();
                    continue;
                }
                slices.push(IoSlice::new(&part[skip..]));
                skip = 0;
                if slices.len() == MAX_IOV {
                    break 'gather;
                }
            }
        }
        match out.write_vectored(&slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tag: u8) -> WireMsg {
        let t = Tensor::from_flat(vec![1.5, -2.25, 0.0]);
        match tag {
            TAG_MODEL => WireMsg::Model {
                step: 42,
                params: t,
            },
            TAG_GRADIENT => WireMsg::Gradient { step: 42, grad: t },
            _ => WireMsg::Exchange {
                step: 42,
                params: t,
            },
        }
    }

    #[test]
    fn roundtrip_all_tags() {
        for tag in [TAG_MODEL, TAG_GRADIENT, TAG_EXCHANGE] {
            let msg = sample(tag);
            let back = decode(&encode(&msg)).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.step(), 42);
            assert_eq!(back.vector().len(), 3);
        }
    }

    #[test]
    fn frame_size_is_header_plus_payload() {
        let msg = sample(TAG_MODEL);
        assert_eq!(encode(&msg).len(), 13 + 3 * 4);
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let mut buf = Vec::new();
        encode_into(&sample(TAG_MODEL), &mut buf);
        let cap = buf.capacity();
        encode_into(&sample(TAG_GRADIENT), &mut buf);
        assert_eq!(buf.capacity(), cap, "no reallocation for same-size frames");
        assert_eq!(decode(&buf).unwrap(), sample(TAG_GRADIENT));
    }

    #[test]
    fn empty_vector_roundtrips() {
        let msg = WireMsg::Gradient {
            step: 0,
            grad: Tensor::from_flat(vec![]),
        };
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn truncated_header_rejected() {
        let err = decode(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut frame = encode(&sample(TAG_MODEL));
        frame.truncate(frame.len() - 4);
        let err = decode(&frame).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn bad_tag_rejected() {
        let mut frame = encode(&sample(TAG_MODEL));
        frame[0] = 99;
        assert_eq!(decode(&frame).unwrap_err(), WireError::BadTag(99));
    }

    #[test]
    fn huge_length_rejected() {
        let mut frame = vec![TAG_MODEL];
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&frame).unwrap_err();
        assert!(matches!(err, WireError::LengthOutOfRange(_)));
    }

    #[test]
    fn stream_decoder_reassembles_byte_at_a_time() {
        let msgs: Vec<WireMsg> = [TAG_MODEL, TAG_GRADIENT, TAG_EXCHANGE]
            .into_iter()
            .map(sample)
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            let mut prefixed = Vec::new();
            prefix_frame(&encode(m), &mut prefixed);
            stream.extend_from_slice(&prefixed);
        }
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn stream_decoder_rejects_oversized_prefix_before_buffering() {
        let mut dec = StreamDecoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame().unwrap_err(),
            WireError::FrameTooLarge(u32::MAX)
        );
    }

    #[test]
    fn stream_decoder_waits_for_partial_frames() {
        let mut prefixed = Vec::new();
        prefix_frame(&encode(&sample(TAG_MODEL)), &mut prefixed);
        let mut dec = StreamDecoder::new();
        dec.extend(&prefixed[..prefixed.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.extend(&prefixed[prefixed.len() - 1..]);
        assert_eq!(dec.next_msg().unwrap().unwrap(), sample(TAG_MODEL));
    }

    #[test]
    fn stream_decoder_surfaces_codec_errors() {
        let mut frame = encode(&sample(TAG_MODEL));
        frame[0] = 77; // corrupt the tag, keep the stream framing valid
        let mut prefixed = Vec::new();
        prefix_frame(&frame, &mut prefixed);
        let mut dec = StreamDecoder::new();
        dec.extend(&prefixed);
        assert_eq!(dec.next_msg().unwrap_err(), WireError::BadTag(77));
    }

    #[test]
    fn write_frames_matches_frame_at_a_time() {
        let frames: Vec<Arc<[u8]>> = [TAG_MODEL, TAG_GRADIENT, TAG_EXCHANGE]
            .into_iter()
            .map(|t| encode(&sample(t)).into())
            .collect();
        let mut expected = Vec::new();
        let mut one = Vec::new();
        for f in &frames {
            prefix_frame(f, &mut one);
            expected.extend_from_slice(&one);
        }
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        write_frames(&mut out, &frames, &mut scratch).unwrap();
        assert_eq!(out, expected, "batched bytes must equal sequential bytes");
        // And the receiving decoder agrees.
        let mut dec = StreamDecoder::new();
        dec.extend(&out);
        for t in [TAG_MODEL, TAG_GRADIENT, TAG_EXCHANGE] {
            assert_eq!(dec.next_msg().unwrap().unwrap(), sample(t));
        }
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn write_frames_empty_batch_writes_nothing() {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        write_frames(&mut out, &[], &mut scratch).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn encode_shared_recycles_scratch() {
        let pool = BufPool::new();
        let a = encode_shared(&sample(TAG_MODEL), &pool);
        let b = encode_shared(&sample(TAG_GRADIENT), &pool);
        assert_eq!(decode(&a).unwrap(), sample(TAG_MODEL));
        assert_eq!(decode(&b).unwrap(), sample(TAG_GRADIENT));
        assert_eq!(pool.fresh(), 1, "second encode reuses the first scratch");
        assert_eq!(pool.recycled(), 1);
    }

    #[test]
    fn range_encode_is_bit_identical_to_slicing_first() {
        let msg = WireMsg::Gradient {
            step: 42,
            grad: Tensor::from_flat((0..11).map(|i| i as f32 * -0.25).collect()),
        };
        let pool = BufPool::new();
        for range in [0..11, 0..1, 3..7, 10..11, 5..5] {
            let ranged = encode_range_shared(&msg, range.clone(), &pool);
            assert_eq!(
                &*ranged,
                encode(&msg.slice(range.clone())),
                "range {range:?} differs from encoding the sliced message"
            );
            let decoded = decode(&ranged).unwrap();
            assert_eq!(decoded.step(), 42);
            assert_eq!(decoded.vector().len(), range.len());
        }
    }

    #[test]
    fn range_encode_shared_recycles_and_round_trips() {
        let pool = BufPool::new();
        let msg = WireMsg::Model {
            step: 7,
            params: Tensor::from_flat(vec![1.0, 2.0, 3.0, 4.0]),
        };
        let a = encode_range_shared(&msg, 1..3, &pool);
        let b = encode_range_shared(&msg, 0..2, &pool);
        assert_eq!(decode(&a).unwrap().vector().as_slice(), &[2.0, 3.0]);
        assert_eq!(decode(&b).unwrap().vector().as_slice(), &[1.0, 2.0]);
        assert_eq!(pool.fresh(), 1, "second range encode reuses the scratch");
    }

    #[test]
    fn slice_preserves_variant_and_step() {
        let msg = WireMsg::Exchange {
            step: 9,
            params: Tensor::from_flat(vec![5.0, 6.0, 7.0]),
        };
        let sliced = msg.slice(1..2);
        assert!(matches!(sliced, WireMsg::Exchange { step: 9, .. }));
        assert_eq!(sliced.vector().as_slice(), &[6.0]);
    }

    #[test]
    fn nan_values_survive_transport() {
        // The wire layer is value-agnostic; NaN filtering is the receiver's
        // job (protocol layer), not the codec's.
        let msg = WireMsg::Gradient {
            step: 1,
            grad: Tensor::from_flat(vec![f32::NAN]),
        };
        let back = decode(&encode(&msg)).unwrap();
        assert!(back.vector().as_slice()[0].is_nan());
    }
}
