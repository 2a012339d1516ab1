//! 2-D convolution via im2col + matrix multiplication.

use tensor::{gemm_into, Tensor, TensorRng};

use crate::layer::{input_grad_read, Layer};
use crate::{NnError, Result};

/// Spatial padding scheme, following TensorFlow's conventions (the paper's
/// CNN uses `SAME` everywhere; that is what makes the FC1 input 8·8·64 =
/// 4096 and the total parameter count ≈ 1.75M).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// No padding: output `(h - k)/s + 1` (floor).
    Valid,
    /// Zero padding so that output is `ceil(h / s)`; padding may be
    /// asymmetric (extra row/column at the bottom/right), exactly like
    /// TensorFlow.
    Same,
}

impl Padding {
    /// Returns `(out, pad_begin)` along one spatial axis of size `h` for
    /// kernel `k` and stride `s`.
    pub(crate) fn geometry(self, h: usize, k: usize, s: usize) -> (usize, usize) {
        match self {
            Padding::Valid => {
                assert!(h >= k, "valid padding requires input >= kernel");
                ((h - k) / s + 1, 0)
            }
            Padding::Same => {
                let out = h.div_ceil(s);
                let pad_total = ((out - 1) * s + k).saturating_sub(h);
                (out, pad_total / 2)
            }
        }
    }
}

/// 2-D convolution over `[batch, channels, height, width]` activations.
///
/// Weights `[out_channels, in_channels · k · k]`, bias `[out_channels]`.
/// The forward pass lowers each sample to a column matrix (im2col) and
/// multiplies by the weight matrix; the backward pass recomputes the columns
/// from the cached input (trading FLOPs for memory — caching columns for a
/// batch of CIFAR-sized activations would cost hundreds of MB). Both passes
/// run [`gemm_into`] straight on slices of the batch buffers: the scratch of
/// a call is one sample's column matrix (forward) or its transpose plus the
/// column gradients (backward), reused from sample to sample.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: Padding,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates the layer with Glorot-uniform weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
        rng: &mut TensorRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = rng.glorot_uniform(&[out_channels, fan_in], fan_in, fan_out);
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
        }
    }

    /// Output spatial size for an input of `h × w`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (oh, _) = self.padding.geometry(h, self.kernel, self.stride);
        let (ow, _) = self.padding.geometry(w, self.kernel, self.stride);
        (oh, ow)
    }

    /// Spatial geometry of one call on an `h × w` input.
    fn geometry(&self, h: usize, w: usize) -> Geometry {
        let (oh, pad_h) = self.padding.geometry(h, self.kernel, self.stride);
        let (ow, pad_w) = self.padding.geometry(w, self.kernel, self.stride);
        Geometry {
            h,
            w,
            oh,
            ow,
            pad_h,
            pad_w,
            flat: self.stride == 1 && oh == h && ow == w,
        }
    }

    /// Lowers one sample `[c, h, w]` into a column matrix `[c·k·k, oh·ow]`,
    /// one row per kernel tap `(c, kh, kw)`.
    ///
    /// `cols` must come in zeroed or from an earlier call with the same
    /// geometry: the flat path never writes the cells above and below the
    /// plane.
    fn im2col(&self, g: &Geometry, sample: &[f32], cols: &mut [f32]) {
        let (k, s) = (self.kernel, self.stride);
        let cells = g.oh * g.ow;
        for (c, plane) in sample.chunks_exact(g.h * g.w).enumerate() {
            for kh in 0..k {
                for kw in 0..k {
                    let tap = (c * k + kh) * k + kw;
                    let dst = &mut cols[tap * cells..(tap + 1) * cells];
                    if g.flat {
                        let (lo, hi, src_lo) = g.shifted(kh, kw);
                        dst[lo..hi].copy_from_slice(&plane[src_lo..src_lo + (hi - lo)]);
                        for cell in g.wrapped(kw) {
                            dst[cell] = 0.0;
                        }
                        continue;
                    }
                    // Cell by cell: any stride, any padding.
                    for oy in 0..g.oh {
                        let iy = (oy * s + kh).wrapping_sub(g.pad_h);
                        for ox in 0..g.ow {
                            let ix = (ox * s + kw).wrapping_sub(g.pad_w);
                            dst[oy * g.ow + ox] = if iy < g.h && ix < g.w {
                                plane[iy * g.w + ix]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// Lowers one sample into the transpose of its column matrix,
    /// `[oh·ow, c·k·k]` — the right operand of `dW += dy · colsᵀ` — one
    /// output cell, i.e. one contiguous row, at a time, for any geometry:
    /// entry `(cell, tap)` is `padded[cell_at[cell] + tap_at[tap]]`, where
    /// `padded` holds the sample's planes with their zero border (only the
    /// interior is ever written, so the border stays zero from sample to
    /// sample).
    fn im2row(&self, g: &Geometry, sample: &[f32], patches: &mut Patches, rows: &mut [f32]) {
        let planes = sample.chunks_exact(g.h * g.w);
        let pplanes = patches.padded.chunks_exact_mut(patches.ph * patches.pw);
        for (plane, pplane) in planes.zip(pplanes) {
            let interior = pplane.chunks_exact_mut(patches.pw).skip(g.pad_h);
            for (row, prow) in plane.chunks_exact(g.w).zip(interior) {
                prow[g.pad_w..g.pad_w + g.w].copy_from_slice(row);
            }
        }
        let rows = rows.chunks_exact_mut(patches.tap_at.len());
        for (row, &cell_at) in rows.zip(&patches.cell_at) {
            let window = &patches.padded[cell_at..];
            for (d, &tap_at) in row.iter_mut().zip(&patches.tap_at) {
                *d = window[tap_at];
            }
        }
    }

    /// Scatters column gradients back onto an input-gradient sample (the
    /// adjoint of [`Conv2d::im2col`]). The flat path first zeroes the
    /// wrapped cells of `dcols`, then adds whole shifted rows: the extra
    /// terms are `+0.0`, and `dsample` — sums that start from `+0.0` — can
    /// never hold the `-0.0` such a term would change.
    fn col2im(&self, g: &Geometry, dcols: &mut [f32], dsample: &mut [f32]) {
        let (k, s) = (self.kernel, self.stride);
        let cells = g.oh * g.ow;
        for (c, plane) in dsample.chunks_exact_mut(g.h * g.w).enumerate() {
            for kh in 0..k {
                for kw in 0..k {
                    let tap = (c * k + kh) * k + kw;
                    let src = &mut dcols[tap * cells..(tap + 1) * cells];
                    if g.flat {
                        let (lo, hi, dst_lo) = g.shifted(kh, kw);
                        for cell in g.wrapped(kw) {
                            src[cell] = 0.0;
                        }
                        let dst = &mut plane[dst_lo..dst_lo + (hi - lo)];
                        for (p, &v) in dst.iter_mut().zip(&src[lo..hi]) {
                            *p += v;
                        }
                        continue;
                    }
                    for oy in 0..g.oh {
                        let iy = (oy * s + kh).wrapping_sub(g.pad_h);
                        for ox in 0..g.ow {
                            let ix = (ox * s + kw).wrapping_sub(g.pad_w);
                            if iy < g.h && ix < g.w {
                                plane[iy * g.w + ix] += src[oy * g.ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[batch, {}, h, w]", self.in_channels),
                got: input.dims().to_vec(),
            });
        }
        if self.padding == Padding::Valid
            && (input.dims()[2] < self.kernel || input.dims()[3] < self.kernel)
        {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("spatial dims >= kernel {}", self.kernel),
                got: input.dims().to_vec(),
            });
        }
        Ok((input.dims()[0], input.dims()[2], input.dims()[3]))
    }

    /// The backward pass: accumulates `dW` and `db` sample by sample and,
    /// when `want_dx`, returns `dx`; without it, `Wᵀ`, the `dcols = Wᵀ·dy`
    /// products, `col2im` and `dx` itself are skipped.
    fn backward_pass(&mut self, grad_out: &Tensor, want_dx: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .clone()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let (batch, h, w) = self.check_input(&input)?;
        let g = self.geometry(h, w);
        let oc = self.out_channels;
        if grad_out.dims() != [batch, oc, g.oh, g.ow] {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[{batch}, {oc}, {}, {}] gradient", g.oh, g.ow),
                got: grad_out.dims().to_vec(),
            });
        }
        let ckk = self.in_channels * self.kernel * self.kernel;
        let n_cols = g.oh * g.ow;
        let chw = self.in_channels * h * w;
        let mut patches = Patches::new(&g, self.in_channels, self.kernel, self.stride);
        let mut rows = vec![0.0f32; n_cols * ckk];
        // Wᵀ [ckk, oc], the column gradients and dx.
        let mut input_grad = if want_dx {
            Some((
                self.weight.transpose()?,
                vec![0.0f32; ckk * n_cols],
                Tensor::zeros(input.dims()),
            ))
        } else {
            None
        };
        let samples = input.as_slice().chunks_exact(chw);
        let dys = grad_out.as_slice().chunks_exact(oc * n_cols);
        for (b, (sample, dy)) in samples.zip(dys).enumerate() {
            // dW += dy · colsᵀ
            self.im2row(&g, sample, &mut patches, &mut rows);
            let dw = self.grad_weight.as_mut_slice();
            gemm_into(dy, &rows, dw, oc, n_cols, ckk, true);
            // db += per-channel sums of dy
            for (db, dyrow) in self
                .grad_bias
                .as_mut_slice()
                .iter_mut()
                .zip(dy.chunks_exact(n_cols))
            {
                *db += dyrow.iter().sum::<f32>();
            }
            // dcols = Wᵀ · dy, scattered back to dx
            if let Some((weight_t, dcols, dx)) = &mut input_grad {
                gemm_into(weight_t.as_slice(), dy, dcols, ckk, oc, n_cols, false);
                let dsample = &mut dx.as_mut_slice()[b * chw..(b + 1) * chw];
                self.col2im(&g, dcols, dsample);
            }
        }
        Ok(input_grad.map(|(_, _, dx)| dx))
    }
}

/// Spatial geometry of one [`Conv2d`] call.
struct Geometry {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    pad_h: usize,
    pad_w: usize,
    /// Stride 1 and an output as large as the input (every model
    /// constructor in the repo): row `(c, kh, kw)` of the column matrix is
    /// plane `c` shifted by a constant flat offset, except for the cells
    /// whose column index wrapped into a neighbouring image row. Any other
    /// geometry takes the cell-by-cell path.
    flat: bool,
}

impl Geometry {
    /// The flat copy for kernel offset `(kh, kw)`: column cells `lo..hi`
    /// correspond to plane cells `src_lo..src_lo + (hi - lo)`; every other
    /// column cell lies above or below the plane.
    fn shifted(&self, kh: usize, kw: usize) -> (usize, usize, usize) {
        let hw = (self.h * self.w) as isize;
        let shift = (kh as isize - self.pad_h as isize) * self.w as isize + kw as isize
            - self.pad_w as isize;
        let lo = (-shift).clamp(0, hw);
        let hi = (hw - shift).clamp(lo, hw);
        (lo as usize, hi as usize, (lo + shift).clamp(0, hw) as usize)
    }

    /// The cells of one flat-shifted row whose input column
    /// `ox + kw - pad_w` falls outside the plane: the shift made them read
    /// (or write) the neighbouring image row, so they must be zero.
    fn wrapped(&self, kw: usize) -> impl Iterator<Item = usize> {
        let w = self.w;
        let dx = kw as isize - self.pad_w as isize;
        let columns = if dx < 0 {
            0..dx.unsigned_abs().min(w)
        } else {
            w - (dx as usize).min(w)..w
        };
        (0..self.h).flat_map(move |oy| columns.clone().map(move |ox| oy * w + ox))
    }
}

/// Scratch of [`Conv2d::im2row`]: one sample's planes with their zero
/// border and the two offset tables that address a kernel window in them.
struct Patches {
    /// `[c, ph, pw]`; plane interiors start at `(pad_h, pad_w)`.
    padded: Vec<f32>,
    ph: usize,
    pw: usize,
    /// Offset of tap `(c, kh, kw)` inside the window of output cell 0.
    tap_at: Vec<usize>,
    /// Offset of each output cell's window (its top-left corner).
    cell_at: Vec<usize>,
}

impl Patches {
    fn new(g: &Geometry, c_in: usize, k: usize, s: usize) -> Self {
        // Every kernel window lies inside the padded plane.
        let ph = (g.h + g.pad_h).max((g.oh - 1) * s + k);
        let pw = (g.w + g.pad_w).max((g.ow - 1) * s + k);
        let taps = (0..c_in * k * k).map(|tap| (tap / (k * k), tap / k % k, tap % k));
        Patches {
            padded: vec![0.0; c_in * ph * pw],
            ph,
            pw,
            tap_at: taps.map(|(c, kh, kw)| (c * ph + kh) * pw + kw).collect(),
            cell_at: (0..g.oh * g.ow)
                .map(|cell| (cell / g.ow * pw + cell % g.ow) * s)
                .collect(),
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}->{},k={},s={})",
            self.in_channels, self.out_channels, self.kernel, self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (batch, h, w) = self.check_input(input)?;
        let g = self.geometry(h, w);
        let oc = self.out_channels;
        let ckk = self.in_channels * self.kernel * self.kernel;
        let n_cols = g.oh * g.ow;
        let mut out = Tensor::zeros(&[batch, oc, g.oh, g.ow]);
        let mut cols = vec![0.0f32; ckk * n_cols];
        let samples = input.as_slice().chunks_exact(self.in_channels * h * w);
        let outs = out.as_mut_slice().chunks_exact_mut(oc * n_cols);
        for (sample, dst) in samples.zip(outs) {
            self.im2col(&g, sample, &mut cols);
            gemm_into(self.weight.as_slice(), &cols, dst, oc, ckk, n_cols, false);
            for (drow, &bias) in dst.chunks_exact_mut(n_cols).zip(self.bias.as_slice()) {
                for d in drow {
                    *d += bias;
                }
            }
        }
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dx = self.backward_pass(grad_out, input_grad_read())?;
        // No dx only under a wrapper's `backward_params`, which drops it.
        Ok(dx.unwrap_or_else(|| Tensor::zeros(&[0])))
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_pass(grad_out, false).map(drop)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);
    }
}

#[cfg(test)]
mod parity;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_geometry_matches_tensorflow() {
        // SAME, k=5, s=1 on 32: out 32, pad 2 (symmetric).
        assert_eq!(Padding::Same.geometry(32, 5, 1), (32, 2));
        // SAME, k=3, s=2 on 32: out 16, pad_total 1 → pad_begin 0.
        assert_eq!(Padding::Same.geometry(32, 3, 2), (16, 0));
        // VALID, k=3, s=1 on 5: out 3.
        assert_eq!(Padding::Valid.geometry(5, 3, 1), (3, 0));
        // VALID, k=2, s=2 on 6: out 3.
        assert_eq!(Padding::Valid.geometry(6, 2, 2), (3, 0));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1: convolution is the identity map.
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, Padding::Same, &mut rng);
        conv.params_mut()[0].as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_valid_convolution() {
        // Input 1x1x3x3 = [[1..9]], kernel 2x2 of ones, VALID, stride 1:
        // out[0,0] = 1+2+4+5 = 12, out[0,1] = 2+3+5+6 = 16,
        // out[1,0] = 4+5+7+8 = 24, out[1,1] = 5+6+8+9 = 28.
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, Padding::Valid, &mut rng);
        for wv in conv.params_mut()[0].as_mut_slice() {
            *wv = 1.0;
        }
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn same_padding_zero_pads_borders() {
        // 3x3 ones kernel over a 2x2 input of ones with SAME padding:
        // each output = count of in-bounds neighbours.
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, Padding::Same, &mut rng);
        for wv in conv.params_mut()[0].as_mut_slice() {
            *wv = 1.0;
        }
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 2, 1, 1, Padding::Same, &mut rng);
        conv.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[0.0, 0.0]);
        conv.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[1.5, -2.5]);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.5; 4]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(2, 1, 1, 1, Padding::Same, &mut rng);
        conv.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[2.0, 3.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 10.0, 10.0], &[1, 2, 1, 2]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        // 2*1 + 3*10 = 32 at each position
        assert_eq!(y.as_slice(), &[32.0, 32.0]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(3, 1, 3, 1, Padding::Same, &mut rng);
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), true).is_err());
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = TensorRng::new(0);
        let conv = Conv2d::new(3, 64, 5, 1, Padding::Same, &mut rng);
        assert_eq!(conv.param_count(), 5 * 5 * 3 * 64 + 64);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, Padding::Same, &mut rng);
        let x = rng.uniform_tensor(&[2, 2, 4, 4], -1.0, 1.0);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 3, 4, 4]);
        let dx = conv.backward(&Tensor::ones(&[2, 3, 4, 4])).unwrap();
        assert_eq!(dx.dims(), &[2, 2, 4, 4]);
        assert_eq!(conv.grads()[0].dims(), &[3, 18]);
        assert_eq!(conv.grads()[1].dims(), &[3]);
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, Padding::Same, &mut rng);
        let dy = Tensor::ones(&[1, 3, 4, 4]);
        assert!(matches!(
            conv.backward(&dy),
            Err(NnError::BackwardBeforeForward { .. })
        ));
        assert!(matches!(
            conv.backward_params(&dy),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn zero_grads_clears_the_accumulators_in_place() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, Padding::Same, &mut rng);
        let x = rng.uniform_tensor(&[2, 2, 4, 4], -1.0, 1.0);
        conv.forward(&x, true).unwrap();
        conv.backward(&Tensor::ones(&[2, 3, 4, 4])).unwrap();
        assert!(conv.grads().iter().all(|g| g.norm() > 0.0));
        let buffers = |c: &Conv2d| {
            c.grads()
                .iter()
                .map(|g| g.as_slice().as_ptr())
                .collect::<Vec<_>>()
        };
        let before = buffers(&conv);
        conv.zero_grads();
        assert!(conv
            .grads()
            .iter()
            .all(|g| g.as_slice().iter().all(|&v| v == 0.0)));
        assert_eq!(buffers(&conv), before);
    }

    #[test]
    fn strided_same_pool_geometry_asymmetric() {
        // k=3, s=2 on h=32 pads only at the bottom (pad_begin = 0)
        let (out, pad) = Padding::Same.geometry(32, 3, 2);
        assert_eq!((out, pad), (16, 0));
        // k=3, s=2 on h=16 → out 8, pad_total = 7*2+3-16 = 1, begin 0
        assert_eq!(Padding::Same.geometry(16, 3, 2), (8, 0));
    }
}
