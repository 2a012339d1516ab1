//! [`Conv2d`] on slices against the per-sample tensor code it replaced,
//! bit for bit.
//!
//! The oracle is the old layer body — cell-by-cell `im2col`, the
//! triple-loop matrix product with its accumulators in memory, a
//! materialised `colsᵀ`, cell-by-cell `col2im` — kept only for these tests.
//! `tensor`'s own tests hold `gemm_into` to the same triple loop.

use tensor::{Tensor, TensorRng};

use super::*;

mod reference {
    use super::{Conv2d, Layer, Padding};

    pub struct Conv {
        pub c_in: usize,
        pub c_out: usize,
        pub k: usize,
        pub s: usize,
        pub padding: Padding,
        pub weight: Vec<f32>,
        pub bias: Vec<f32>,
        pub grad_weight: Vec<f32>,
        pub grad_bias: Vec<f32>,
    }

    struct Geometry {
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        pad_h: usize,
        pad_w: usize,
    }

    fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn transpose(a: &[f32], m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        out
    }

    impl Conv {
        pub fn like(layer: &Conv2d) -> Self {
            Conv {
                c_in: layer.in_channels,
                c_out: layer.out_channels,
                k: layer.kernel,
                s: layer.stride,
                padding: layer.padding,
                weight: layer.params()[0].as_slice().to_vec(),
                bias: layer.params()[1].as_slice().to_vec(),
                grad_weight: layer.grads()[0].as_slice().to_vec(),
                grad_bias: layer.grads()[1].as_slice().to_vec(),
            }
        }

        fn geometry(&self, h: usize, w: usize) -> Geometry {
            let (oh, pad_h) = self.padding.geometry(h, self.k, self.s);
            let (ow, pad_w) = self.padding.geometry(w, self.k, self.s);
            Geometry {
                h,
                w,
                oh,
                ow,
                pad_h,
                pad_w,
            }
        }

        fn im2col(&self, g: &Geometry, sample: &[f32], cols: &mut [f32]) {
            let (k, s) = (self.k, self.s);
            let n_cols = g.oh * g.ow;
            for c in 0..self.c_in {
                let plane = &sample[c * g.h * g.w..(c + 1) * g.h * g.w];
                for kh in 0..k {
                    for kw in 0..k {
                        let row = (c * k + kh) * k + kw;
                        let dst = &mut cols[row * n_cols..(row + 1) * n_cols];
                        for oy in 0..g.oh {
                            let iy = (oy * s + kh) as isize - g.pad_h as isize;
                            let base = oy * g.ow;
                            if iy < 0 || iy >= g.h as isize {
                                dst[base..base + g.ow].fill(0.0);
                                continue;
                            }
                            let iy = iy as usize;
                            for ox in 0..g.ow {
                                let ix = (ox * s + kw) as isize - g.pad_w as isize;
                                dst[base + ox] = if ix < 0 || ix >= g.w as isize {
                                    0.0
                                } else {
                                    plane[iy * g.w + ix as usize]
                                };
                            }
                        }
                    }
                }
            }
        }

        fn col2im(&self, g: &Geometry, dcols: &[f32], dsample: &mut [f32]) {
            let (k, s) = (self.k, self.s);
            let n_cols = g.oh * g.ow;
            for c in 0..self.c_in {
                let plane = &mut dsample[c * g.h * g.w..(c + 1) * g.h * g.w];
                for kh in 0..k {
                    for kw in 0..k {
                        let row = (c * k + kh) * k + kw;
                        let src = &dcols[row * n_cols..(row + 1) * n_cols];
                        for oy in 0..g.oh {
                            let iy = (oy * s + kh) as isize - g.pad_h as isize;
                            if iy < 0 || iy >= g.h as isize {
                                continue;
                            }
                            let iy = iy as usize;
                            for ox in 0..g.ow {
                                let ix = (ox * s + kw) as isize - g.pad_w as isize;
                                if ix >= 0 && ix < g.w as isize {
                                    plane[iy * g.w + ix as usize] += src[oy * g.ow + ox];
                                }
                            }
                        }
                    }
                }
            }
        }

        /// `[batch, c_out, oh, ow]` for an input `[batch, c_in, h, w]`.
        pub fn forward(&self, x: &[f32], batch: usize, h: usize, w: usize) -> Vec<f32> {
            let g = self.geometry(h, w);
            let ckk = self.c_in * self.k * self.k;
            let n_cols = g.oh * g.ow;
            let mut out = vec![0.0f32; batch * self.c_out * n_cols];
            let mut cols = vec![0.0f32; ckk * n_cols];
            for b in 0..batch {
                self.im2col(&g, &x[b * self.c_in * h * w..], &mut cols);
                let out_mat = matmul(&self.weight, &cols, self.c_out, ckk, n_cols);
                let dst = &mut out[b * self.c_out * n_cols..(b + 1) * self.c_out * n_cols];
                for oc in 0..self.c_out {
                    for i in 0..n_cols {
                        dst[oc * n_cols + i] = out_mat[oc * n_cols + i] + self.bias[oc];
                    }
                }
            }
            out
        }

        /// Accumulates the parameter gradients and returns `dx`.
        pub fn backward(
            &mut self,
            x: &[f32],
            dy: &[f32],
            batch: usize,
            h: usize,
            w: usize,
        ) -> Vec<f32> {
            let g = self.geometry(h, w);
            let ckk = self.c_in * self.k * self.k;
            let n_cols = g.oh * g.ow;
            let mut dx = vec![0.0f32; x.len()];
            let mut cols = vec![0.0f32; ckk * n_cols];
            let weight_t = transpose(&self.weight, self.c_out, ckk);
            for b in 0..batch {
                self.im2col(&g, &x[b * self.c_in * h * w..], &mut cols);
                let go = &dy[b * self.c_out * n_cols..(b + 1) * self.c_out * n_cols];
                let dw = matmul(go, &transpose(&cols, ckk, n_cols), self.c_out, n_cols, ckk);
                for (gw, d) in self.grad_weight.iter_mut().zip(&dw) {
                    *gw += d;
                }
                for oc in 0..self.c_out {
                    let s: f32 = go[oc * n_cols..(oc + 1) * n_cols].iter().sum();
                    self.grad_bias[oc] += s;
                }
                let dcols = matmul(&weight_t, go, ckk, self.c_out, n_cols);
                let dsample = &mut dx[b * self.c_in * h * w..(b + 1) * self.c_in * h * w];
                self.col2im(&g, &dcols, dsample);
            }
            dx
        }
    }
}

/// Bit equality, except that two NaNs born of arithmetic compare equal: the
/// language leaves the sign and payload of such a NaN open.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#x}), reference {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// What fills the operands of one case.
#[derive(Debug, Clone, Copy)]
struct Fill {
    /// Share of `dy` that is zero (every third zero is `-0.0`).
    dy_zeros: f32,
    /// Zero weights, and `∞` / `NaN` in the input and in `dy`: every
    /// product puts a non-finite operand next to a zero one.
    non_finite: bool,
}

const DENSE: Fill = Fill {
    dy_zeros: 0.0,
    non_finite: false,
};
const POOLED: Fill = Fill {
    dy_zeros: 0.75,
    non_finite: false,
};

fn sprinkle(rng: &mut TensorRng, v: &mut [f32], share: f32, values: &[f32]) {
    for (i, x) in v.iter_mut().enumerate() {
        if rng.uniform(0.0, 1.0) < share {
            *x = values[i % values.len()];
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check(
    padding: Padding,
    stride: usize,
    kernel: usize,
    (c_in, c_out): (usize, usize),
    (h, w): (usize, usize),
    batch: usize,
    fill: Fill,
) {
    let what =
        format!("{padding:?} s={stride} k={kernel} {c_in}->{c_out} {h}x{w} batch={batch} {fill:?}");
    let mut rng = TensorRng::new(0x15 + (kernel * 31 + h * 7 + batch) as u64);
    let mut layer = Conv2d::new(c_in, c_out, kernel, stride, padding, &mut rng);
    for b in layer.params_mut()[1].as_mut_slice() {
        *b = rng.uniform(-0.5, 0.5);
    }
    let mut x = rng.uniform_tensor(&[batch, c_in, h, w], -1.0, 1.0);
    sprinkle(&mut rng, x.as_mut_slice(), 0.2, &[0.0, -0.0]);
    let (oh, ow) = layer.output_hw(h, w);
    let mut dy = rng.uniform_tensor(&[batch, c_out, oh, ow], -1.0, 1.0);
    sprinkle(
        &mut rng,
        dy.as_mut_slice(),
        fill.dy_zeros,
        &[0.0, 0.0, -0.0],
    );
    if fill.non_finite {
        let specials = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
        sprinkle(
            &mut rng,
            layer.params_mut()[0].as_mut_slice(),
            0.3,
            &[0.0, -0.0],
        );
        sprinkle(&mut rng, x.as_mut_slice(), 0.05, &specials);
        sprinkle(&mut rng, dy.as_mut_slice(), 0.05, &specials);
    }

    // A twin on the same parameters takes the parameters-only pass.
    let mut twin = Conv2d::new(c_in, c_out, kernel, stride, padding, &mut rng);
    for (t, p) in twin.params_mut().into_iter().zip(layer.params()) {
        t.as_mut_slice().copy_from_slice(p.as_slice());
    }

    let mut oracle = reference::Conv::like(&layer);
    // Two rounds: the second accumulates onto the first's gradients.
    for round in 0..2 {
        let y = layer.forward(&x, true).unwrap();
        let dx = layer.backward(&dy).unwrap();
        twin.forward(&x, true).unwrap();
        twin.backward_params(&dy).unwrap();
        let want_y = oracle.forward(x.as_slice(), batch, h, w);
        let want_dx = oracle.backward(x.as_slice(), dy.as_slice(), batch, h, w);
        let what = format!("{what} round {round}");
        assert_eq!(y.dims(), &[batch, c_out, oh, ow], "{what}");
        assert_eq!(dx.dims(), x.dims(), "{what}");
        assert_same_bits(y.as_slice(), &want_y, &format!("{what}: output"));
        assert_same_bits(dx.as_slice(), &want_dx, &format!("{what}: dx"));
        let (gw, gb) = (layer.grads()[0].as_slice(), layer.grads()[1].as_slice());
        assert_same_bits(gw, &oracle.grad_weight, &format!("{what}: grad_weight"));
        assert_same_bits(gb, &oracle.grad_bias, &format!("{what}: grad_bias"));
        let (tw, tb) = (twin.grads()[0].as_slice(), twin.grads()[1].as_slice());
        assert_same_bits(tw, gw, &format!("{what}: backward_params grad_weight"));
        assert_same_bits(tb, gb, &format!("{what}: backward_params grad_bias"));
    }
}

#[test]
fn every_geometry_matches_the_reference() {
    // Flat (stride 1, output as large as the input) and cell-by-cell paths,
    // symmetric and bottom/right-only padding, square and not.
    for padding in [Padding::Same, Padding::Valid] {
        for stride in [1, 2] {
            for kernel in [1, 2, 3, 5] {
                for hw in [(8, 8), (5, 7), (6, 5)] {
                    check(padding, stride, kernel, (3, 4), hw, 3, POOLED);
                }
            }
        }
    }
    // A kernel wider than the plane: every flat shift clamps.
    check(Padding::Same, 1, 5, (2, 2), (2, 3), 2, DENSE);
    check(Padding::Same, 1, 3, (1, 1), (1, 1), 1, DENSE);
}

#[test]
fn the_model_shapes_match_the_reference_at_every_batch_and_sparsity() {
    let all_zero = Fill {
        dy_zeros: 1.0,
        non_finite: false,
    };
    // 27- and 72-wide weight rows on the planes `small_cnn` convolves, and
    // channel counts that fill no register tile.
    let shapes = [((3, 8), (8, 8)), ((8, 8), (4, 4)), ((5, 3), (4, 6))];
    for (channels, hw) in shapes {
        for batch in [0, 1, 3, 64] {
            for fill in [DENSE, POOLED, all_zero] {
                check(Padding::Same, 1, 3, channels, hw, batch, fill);
            }
        }
    }
}

#[test]
fn zero_times_infinity_stays_out_of_every_sum() {
    for dy_zeros in [0.0, 0.75] {
        let fill = Fill {
            dy_zeros,
            non_finite: true,
        };
        check(Padding::Same, 1, 3, (3, 8), (8, 8), 3, fill);
        check(Padding::Same, 1, 3, (8, 8), (4, 4), 3, fill);
        check(Padding::Valid, 2, 3, (3, 4), (7, 6), 2, fill);
        check(Padding::Same, 2, 5, (2, 3), (6, 5), 2, fill);
    }
}

#[test]
fn dx_of_a_flat_geometry_never_holds_negative_zero() {
    // What makes the flat col2im's extra `+0.0` terms bit-neutral.
    let mut rng = TensorRng::new(9);
    let mut layer = Conv2d::new(2, 3, 3, 1, Padding::Same, &mut rng);
    for wv in layer.params_mut()[0].as_mut_slice() {
        *wv = -0.0;
    }
    let x = Tensor::ones(&[1, 2, 4, 4]);
    layer.forward(&x, true).unwrap();
    let dy = Tensor::full(&[1, 3, 4, 4], -0.0);
    let dx = layer.backward(&dy).unwrap();
    for v in dx.as_slice() {
        assert_eq!(v.to_bits(), 0.0f32.to_bits());
    }
}
