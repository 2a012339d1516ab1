//! Known answers for the wire codec.
//!
//! Every frame on both transports goes through `encode` / `encode_shared`
//! and back through `decode`. The byte literals below are written from the
//! frame layout in `wire.rs`'s module doc (`[tag: u8][step: u64][len: u32]`
//! then each `f32`'s little-endian bits), with values that a conversion
//! shortcut could get wrong: −0.0, the smallest subnormal, ±∞, a NaN with
//! a payload, and `f32::MAX`. The digests pin a wide frame of the size the
//! `tcp-wide` workload sends. A faster codec must reproduce them bit for
//! bit.

use guanyu_runtime::{decode, encode, encode_shared, BufPool, WireMsg};
use tensor::{Tensor, TensorRng};

/// The quiet NaN `0x7fc0_0001`: a payload bit a float round trip through
/// arithmetic could drop.
const NAN_BITS: u32 = 0x7fc0_0001;

/// Bit patterns of the mixed values, in payload order.
const VALUE_BITS: [u32; 7] = [
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    NAN_BITS,
    0x7f7f_ffff, // f32::MAX
    0x3fc0_0000, // 1.5
];

/// The payload bytes of [`VALUE_BITS`], each value's little-endian bits.
const PAYLOAD: [u8; 28] = [
    0x00, 0x00, 0x00, 0x80, //
    0x01, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x80, 0x7f, //
    0x00, 0x00, 0x80, 0xff, //
    0x01, 0x00, 0xc0, 0x7f, //
    0xff, 0xff, 0x7f, 0x7f, //
    0x00, 0x00, 0xc0, 0x3f, //
];

fn mixed() -> Tensor {
    Tensor::from_flat(VALUE_BITS.iter().map(|&b| f32::from_bits(b)).collect())
}

/// Header of a frame carrying the seven mixed values.
fn header(tag: u8, step: u64) -> Vec<u8> {
    let mut h = vec![tag];
    h.extend_from_slice(&step.to_le_bytes());
    h.extend_from_slice(&[7, 0, 0, 0]);
    h
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over bytes.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn model_gradient_and_exchange_frames_have_known_bytes() {
    let cases = [
        (
            WireMsg::Model {
                step: 0x0102_0304_0506_0708,
                params: mixed(),
            },
            [
                0x01, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x07, 0x00, 0x00, 0x00,
            ],
        ),
        (
            WireMsg::Gradient {
                step: 0,
                grad: mixed(),
            },
            [
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
            ],
        ),
        (
            WireMsg::Exchange {
                step: u64::MAX,
                params: mixed(),
            },
            [
                0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x07, 0x00, 0x00, 0x00,
            ],
        ),
    ];
    for (msg, head) in cases {
        let frame = encode(&msg);
        assert_eq!(&frame[..13], &head[..], "{msg:?}: header");
        assert_eq!(&frame[13..], &PAYLOAD[..], "{msg:?}: payload");
        assert_eq!(frame[..13], header(head[0], msg.step())[..]);
        // And the shared encode writes the same bytes.
        assert_eq!(&*encode_shared(&msg, &BufPool::new()), &frame[..]);
    }
}

#[test]
fn decode_of_the_known_bytes_keeps_every_bit() {
    for (tag, step) in [(1u8, 7u64), (2, 8), (3, 9)] {
        let mut frame = header(tag, step);
        frame.extend_from_slice(&PAYLOAD);
        let msg = decode(&frame).unwrap();
        assert_eq!(msg.step(), step);
        assert_eq!(bits(msg.vector()), VALUE_BITS, "tag {tag}");
        assert_eq!(msg.vector().dims(), &[7]);
        let variant_ok = matches!(
            (tag, &msg),
            (1, WireMsg::Model { .. })
                | (2, WireMsg::Gradient { .. })
                | (3, WireMsg::Exchange { .. })
        );
        assert!(variant_ok, "tag {tag} decoded as {msg:?}");
    }
}

/// `tcp-wide`'s frame width: the wide MLP's parameter count.
const WIDE: usize = 64_970;

#[test]
fn a_wide_normal_frame_has_a_known_digest() {
    let grad = TensorRng::new(3301).normal_tensor(&[WIDE], 0.0, 1.0);
    let msg = WireMsg::Gradient { step: 41, grad };
    let pool = BufPool::new();
    let frame = encode_shared(&msg, &pool);
    assert_eq!(frame.len(), 13 + 4 * WIDE);
    assert_eq!(fnv(frame.iter().copied()), 0xe3ec_3681_8f2a_8c07);
    // A second, warmed encode writes the same bytes.
    assert_eq!(encode_shared(&msg, &pool), frame);

    let back = decode(&frame).unwrap();
    let back_bits = fnv(back
        .vector()
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes()));
    assert_eq!(back_bits, 0x02b7_f8ac_a652_8307);
    assert_eq!(bits(back.vector()), bits(msg.vector()));
}
