//! Fuzz-style property tests for the wire codec: a Byzantine peer controls
//! every byte on the channel, so `decode` must be total — any input yields
//! `Ok` or a structured error, never a panic, and valid frames round-trip.
//! The same contract extends to the stream layer (`StreamDecoder`): the
//! TCP transport feeds it raw socket bytes at arbitrary granularity, and
//! it must re-assemble honestly framed streams exactly while rejecting
//! over-cap prefixes before buffering a single payload byte, whether it is
//! fed chunks or reads from the socket itself.

use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

use guanyu::node::NodeMsg;
use guanyu_runtime::{
    decode, encode, prefix_frame, write_frames, StreamDecoder, WireMsg, MAX_FRAME_BYTES, READ_SLACK,
};
use proptest::prelude::*;
use tensor::Tensor;

fn build_msg(tag: u8, step: u64, payload: Vec<f32>) -> WireMsg {
    let t = Tensor::from_flat(payload);
    match tag {
        0 => WireMsg::Model { step, params: t },
        1 => WireMsg::Gradient { step, grad: t },
        _ => WireMsg::Exchange { step, params: t },
    }
}

/// A `Write` sink with adversarial partial-write behaviour: each call
/// accepts at most the next value of a cycled limit schedule, so a batched
/// write may stop anywhere — mid-prefix, mid-frame, one byte at a time —
/// exactly like a congested socket. With `vectored` off it additionally
/// degrades `write_vectored` to the std default (first non-empty slice
/// only), covering writers with no true gather support.
struct ChoppyWriter {
    out: Vec<u8>,
    limits: Vec<usize>,
    calls: usize,
    vectored: bool,
}

impl ChoppyWriter {
    fn next_limit(&mut self) -> usize {
        let l = self.limits[self.calls % self.limits.len()];
        self.calls += 1;
        l.max(1) // a sink must make *some* progress or WriteZero is correct
    }
}

impl Write for ChoppyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.next_limit());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        if !self.vectored {
            // std's default: only the first non-empty buffer.
            let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b);
            return self.write(first);
        }
        let mut budget = self.next_limit();
        let mut written = 0;
        for b in bufs {
            let n = b.len().min(budget);
            self.out.extend_from_slice(&b[..n]);
            written += n;
            budget -= n;
            if budget == 0 {
                break;
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `Read` source with adversarial short reads: each call returns at
/// most the next value of a cycled limit schedule (one byte included), as
/// a socket may under load.
struct ChoppyReader<'a> {
    src: &'a [u8],
    limits: Vec<usize>,
    calls: usize,
}

impl Read for ChoppyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let limit = self.limits[self.calls % self.limits.len()].max(1);
        self.calls += 1;
        let n = buf.len().min(limit).min(self.src.len());
        buf[..n].copy_from_slice(&self.src[..n]);
        self.src = &self.src[n..];
        Ok(n)
    }
}

/// A message whose `len` payload values follow from `step`: wide frames
/// without drawing thousands of random floats per case.
fn sized_msg(tag: u8, step: u64, len: usize) -> WireMsg {
    let base = (step % 1024) as f32;
    build_msg(
        tag,
        step,
        (0..len).map(|i| base - i as f32 * 0.25).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode() never panics on arbitrary bytes.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes); // must not panic
    }

    /// Every encodable message round-trips exactly — including one built
    /// as the node machines build it: the codec's message *is*
    /// `guanyu::node::NodeMsg`, so what a machine sends is what the peer's
    /// machine is fed, with no translation in between.
    #[test]
    fn roundtrip(
        tag in 0u8..3,
        step in any::<u64>(),
        payload in proptest::collection::vec(-1e6f32..1e6, 0..64),
        from_machine in any::<bool>(),
    ) {
        let msg = if from_machine {
            let t = Tensor::from_flat(payload);
            match tag {
                0 => NodeMsg::Model { step, params: t },
                1 => NodeMsg::Gradient { step, grad: t },
                _ => NodeMsg::Exchange { step, params: t },
            }
        } else {
            build_msg(tag, step, payload)
        };
        let back: NodeMsg = decode(&encode(&msg)).unwrap();
        prop_assert_eq!(back.step(), step);
        prop_assert_eq!(back.vector().as_slice(), msg.vector().as_slice());
        prop_assert_eq!(back, msg);
    }

    /// Truncating a valid frame anywhere yields an error, not garbage.
    #[test]
    fn truncation_detected(
        payload in proptest::collection::vec(-10.0f32..10.0, 1..16),
        cut in 0usize..12,
    ) {
        let msg = WireMsg::Gradient { step: 7, grad: Tensor::from_flat(payload) };
        let frame = encode(&msg);
        let cut = cut.min(frame.len().saturating_sub(1));
        prop_assert!(decode(&frame[..cut]).is_err());
    }

    /// Bit-flipping the tag byte of a valid frame either still decodes to a
    /// (different) valid message type or errors — never panics.
    #[test]
    fn tag_corruption_handled(
        payload in proptest::collection::vec(-10.0f32..10.0, 1..8),
        new_tag in any::<u8>(),
    ) {
        let msg = WireMsg::Model { step: 1, params: Tensor::from_flat(payload) };
        let mut frame = encode(&msg);
        frame[0] = new_tag;
        let _ = decode(&frame); // totality is the property
    }

    /// Stream re-assembly is exact regardless of chunk boundaries: a
    /// sequence of messages, prefixed and concatenated, then delivered in
    /// arbitrary-size chunks, decodes back to exactly that sequence.
    #[test]
    fn stream_reassembly_is_chunking_invariant(
        specs in proptest::collection::vec(
            (0u8..3, any::<u64>(), proptest::collection::vec(-1e3f32..1e3, 0..24)),
            0..8,
        ),
        chunk_size in 1usize..64,
    ) {
        let msgs: Vec<WireMsg> = specs
            .into_iter()
            .map(|(tag, step, payload)| build_msg(tag, step, payload))
            .collect();
        let mut stream = Vec::new();
        let mut prefixed = Vec::new();
        for m in &msgs {
            prefix_frame(&encode(m), &mut prefixed);
            stream.extend_from_slice(&prefixed);
        }
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(chunk_size) {
            dec.extend(chunk);
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// The stream decoder is total on arbitrary bytes: garbage yields
    /// frames, `None`, or a structured error — never a panic — and an
    /// over-cap length prefix is always rejected.
    #[test]
    fn stream_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = StreamDecoder::new();
        dec.extend(&bytes);
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => prop_assert!(frame.len() <= MAX_FRAME_BYTES),
                Ok(None) => break,
                Err(_) => break, // poisoned stream: the reader closes it
            }
        }
    }

    /// An over-cap length prefix errors immediately — before the decoder
    /// buffers (or waits for) a single payload byte.
    #[test]
    fn oversized_prefix_rejected_eagerly(
        excess in 1u32..4097,
        noise in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let bad = (MAX_FRAME_BYTES as u32).saturating_add(excess);
        let mut dec = StreamDecoder::new();
        dec.extend(&bad.to_le_bytes());
        dec.extend(&noise);
        prop_assert!(dec.next_frame().is_err());
    }

    /// The batched writer's on-wire byte stream is identical to prefixing
    /// and `write_all`-ing each frame individually, for arbitrary frame
    /// sequences and arbitrary partial-write behaviour — batching is
    /// invisible to the receiving `StreamDecoder`.
    #[test]
    fn batched_writer_stream_equals_frame_at_a_time(
        specs in proptest::collection::vec(
            (0u8..3, any::<u64>(), proptest::collection::vec(-1e3f32..1e3, 0..24)),
            0..8,
        ),
        limits in proptest::collection::vec(1usize..97, 1..8),
        vectored in any::<bool>(),
    ) {
        let msgs: Vec<WireMsg> = specs
            .into_iter()
            .map(|(tag, step, payload)| build_msg(tag, step, payload))
            .collect();
        let frames: Vec<Arc<[u8]>> = msgs.iter().map(|m| encode(m).into()).collect();
        let mut expected = Vec::new();
        let mut prefixed = Vec::new();
        for f in &frames {
            prefix_frame(f, &mut prefixed);
            expected.extend_from_slice(&prefixed);
        }
        let mut sink = ChoppyWriter { out: Vec::new(), limits, calls: 0, vectored };
        let mut scratch = Vec::new();
        write_frames(&mut sink, &frames, &mut scratch).unwrap();
        prop_assert_eq!(&sink.out, &expected);
        // And the stream decodes back to exactly the original sequence.
        let mut dec = StreamDecoder::new();
        dec.extend(&sink.out);
        let mut out = Vec::new();
        while let Some(m) = dec.next_msg().unwrap() {
            out.push(m);
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Truncating a prefixed stream anywhere never yields a phantom
    /// message: the decoder returns strictly a prefix of the original
    /// sequence, then waits for more input (or errors) — it never invents
    /// or reorders frames.
    #[test]
    fn stream_truncation_yields_a_prefix(
        specs in proptest::collection::vec(
            (0u8..3, any::<u64>(), proptest::collection::vec(-1e3f32..1e3, 0..16)),
            1..6,
        ),
        cut_frac in 0.0f64..1.0,
    ) {
        let msgs: Vec<WireMsg> = specs
            .into_iter()
            .map(|(tag, step, payload)| build_msg(tag, step, payload))
            .collect();
        let mut stream = Vec::new();
        let mut prefixed = Vec::new();
        for m in &msgs {
            prefix_frame(&encode(m), &mut prefixed);
            stream.extend_from_slice(&prefixed);
        }
        let cut = ((stream.len() as f64) * cut_frac) as usize;
        let mut dec = StreamDecoder::new();
        dec.extend(&stream[..cut]);
        let mut out = Vec::new();
        while let Ok(Some(m)) = dec.next_msg() {
            out.push(m);
        }
        prop_assert!(out.len() <= msgs.len());
        prop_assert_eq!(&msgs[..out.len()], &out[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reading straight from a source that returns arbitrary short reads
    /// yields exactly what feeding the whole stream through `extend` does,
    /// and the decoder's buffer never holds more than the largest frame,
    /// its prefix and one slack read — frames here range from empty to
    /// several times the slack.
    #[test]
    fn read_from_short_reads_yields_what_extend_yields(
        specs in proptest::collection::vec((0u8..3, any::<u64>(), 0usize..12_000), 0..6),
        limits in proptest::collection::vec((0u8..3, 1usize..70_000), 1..6),
    ) {
        // One byte, a few dozen bytes, or up to several frames' worth.
        let limits = limits
            .into_iter()
            .map(|(kind, n)| match kind {
                0 => 1,
                1 => n % 64 + 1,
                _ => n,
            })
            .collect();
        let msgs: Vec<WireMsg> = specs
            .into_iter()
            .map(|(tag, step, len)| sized_msg(tag, step, len))
            .collect();
        let frames: Vec<Vec<u8>> = msgs.iter().map(encode).collect();
        let largest = frames.iter().map(Vec::len).max().unwrap_or(0);
        let mut stream = Vec::new();
        let mut prefixed = Vec::new();
        for f in &frames {
            prefix_frame(f, &mut prefixed);
            stream.extend_from_slice(&prefixed);
        }

        let mut whole = StreamDecoder::new();
        whole.extend(&stream);
        let mut expected = Vec::new();
        while let Some(m) = whole.next_msg().unwrap() {
            expected.push(m);
        }
        prop_assert_eq!(&expected, &msgs);

        let mut src = ChoppyReader { src: &stream, limits, calls: 0 };
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        loop {
            let asked = dec.read_len();
            let k = dec.read_from(&mut src).unwrap();
            prop_assert!(k <= asked);
            prop_assert!(
                dec.footprint() <= largest + 4 + READ_SLACK,
                "footprint {} over {} + 4 + {}", dec.footprint(), largest, READ_SLACK
            );
            if k == 0 {
                break;
            }
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, expected);
        prop_assert_eq!(dec.pending(), 0);
    }
}
