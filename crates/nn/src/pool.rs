//! Max pooling.

use tensor::Tensor;

use crate::conv::Padding;
use crate::layer::Layer;
use crate::{NnError, Result};

/// 2-D max pooling over `[batch, channels, height, width]` activations.
///
/// The paper's CNN uses 3×3 windows with stride 2 and `SAME` padding
/// (Table 1). Padded cells never win the max (they are treated as −∞ /
/// skipped), matching TensorFlow's behaviour.
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    padding: Padding,
    /// For each output element, the flat input index that won the max.
    argmax: Option<Vec<usize>>,
    input_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates the layer.
    pub fn new(kernel: usize, stride: usize, padding: Padding) -> Self {
        MaxPool2d {
            kernel,
            stride,
            padding,
            argmax: None,
            input_dims: None,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (oh, _) = self.padding.geometry(h, self.kernel, self.stride);
        let (ow, _) = self.padding.geometry(w, self.kernel, self.stride);
        (oh, ow)
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool2d(k={},s={})", self.kernel, self.stride)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.rank() != 4 {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: "[batch, channels, h, w]".to_owned(),
                got: input.dims().to_vec(),
            });
        }
        let (batch, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (oh, pad_h) = self.padding.geometry(h, self.kernel, self.stride);
        let (ow, pad_w) = self.padding.geometry(w, self.kernel, self.stride);
        let mut out = Tensor::zeros(&[batch, c, oh, ow]);
        let mut argmax = vec![0usize; batch * c * oh * ow];
        let (k, s) = (self.kernel, self.stride);
        // A window's in-bounds rows or columns, worked out once per output
        // row and column so that no cell is bounds-checked against the plane.
        let span = |o: usize, pad: usize, len: usize| {
            (o * s).saturating_sub(pad)..(o * s + k).saturating_sub(pad).min(len)
        };
        let xs: Vec<_> = (0..ow).map(|ox| span(ox, pad_w, w)).collect();
        let planes = input.as_slice().chunks_exact(h * w);
        let dplanes = out.as_mut_slice().chunks_exact_mut(oh * ow);
        let aplanes = argmax.chunks_exact_mut(oh * ow);
        for (p, ((plane, dplane), aplane)) in planes.zip(dplanes).zip(aplanes).enumerate() {
            let drows = dplane.chunks_exact_mut(ow);
            let arows = aplane.chunks_exact_mut(ow);
            for (oy, (drow, arow)) in drows.zip(arows).enumerate() {
                let ys = span(oy, pad_h, h);
                for ((d, a), xs) in drow.iter_mut().zip(arow).zip(&xs) {
                    // A window of only NaN / -inf cells never moves `best`:
                    // its gradient still belongs to this window's first
                    // cell, not to cell 0 of the batch.
                    let mut best = f32::NEG_INFINITY;
                    let mut best_at = ys.start * w + xs.start;
                    for iy in ys.clone() {
                        let at = iy * w + xs.start;
                        for (i, &v) in plane[at..at + xs.len()].iter().enumerate() {
                            if v > best {
                                best = v;
                                best_at = at + i;
                            }
                        }
                    }
                    *d = best;
                    *a = p * h * w + best_at;
                }
            }
        }
        self.argmax = Some(argmax);
        self.input_dims = Some(input.dims().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let argmax = self
            .argmax
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let input_dims = self.input_dims.as_ref().expect("set with argmax");
        if grad_out.len() != argmax.len() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("{} elements", argmax.len()),
                got: grad_out.dims().to_vec(),
            });
        }
        let mut dx = Tensor::zeros(input_dims);
        let d = dx.as_mut_slice();
        for (&idx, &g) in argmax.iter().zip(grad_out.as_slice()) {
            d[idx] += g;
        }
        Ok(dx)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maxima_valid() {
        // 2x2 pooling stride 2 on a 4x4 plane.
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn paper_geometry_32_to_16() {
        let pool = MaxPool2d::new(3, 2, Padding::Same);
        assert_eq!(pool.output_hw(32, 32), (16, 16));
        assert_eq!(pool.output_hw(16, 16), (8, 8));
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[3.0]);
        let dx = pool
            .backward(&Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn padded_cells_never_win() {
        // All-negative input with SAME padding: zeros in the pad would win a
        // naive max; ensure the real (negative) values are selected.
        let x = Tensor::from_vec(vec![-5.0, -3.0, -4.0, -6.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(3, 2, Padding::Same);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice(), &[-3.0]);
    }

    #[test]
    fn a_window_nothing_wins_keeps_its_gradient_in_its_own_sample() {
        // The second sample is all -inf (then all NaN): no cell beats the
        // initial -inf, and the window's gradient used to land on flat index
        // 0 — sample 0, channel 0, pixel (0, 0).
        for dead in [f32::NEG_INFINITY, f32::NAN] {
            let x = Tensor::from_vec(
                vec![1.0, 2.0, 3.0, 4.0, dead, dead, dead, dead],
                &[2, 1, 2, 2],
            )
            .unwrap();
            let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
            let y = pool.forward(&x, true).unwrap();
            assert_eq!(y.as_slice(), &[4.0, f32::NEG_INFINITY]);
            let dy = Tensor::from_vec(vec![5.0, 7.0], &[2, 1, 1, 1]).unwrap();
            let dx = pool.backward(&dy).unwrap();
            assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 5.0, 7.0, 0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn border_windows_of_a_same_padded_plane_see_only_the_plane() {
        // 3x3 windows, stride 2, on 5x4: one padded row above and below,
        // one padded column on the right only, so windows are clipped at
        // three of the four borders.
        let (h, w) = (5, 4);
        let x = Tensor::from_vec((0..h * w).map(|v| -(v as f32)).collect(), &[1, 1, h, w]).unwrap();
        let mut pool = MaxPool2d::new(3, 2, Padding::Same);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 3, 2]);
        // Values fall with the index, so each window's max is its first
        // in-bounds cell: rows {0, 1, 3}, columns {0, 2}.
        assert_eq!(y.as_slice(), &[-0.0, -2.0, -4.0, -6.0, -12.0, -14.0]);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 3, 2])).unwrap();
        let hit: Vec<usize> = (0..h * w).filter(|&i| dx.as_slice()[i] != 0.0).collect();
        assert_eq!(hit, vec![0, 2, 4, 6, 12, 14]);
    }

    #[test]
    fn rejects_non_4d() {
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        assert!(pool.forward(&Tensor::zeros(&[4, 4]), true).is_err());
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn per_channel_independence() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // channel 0
                40.0, 30.0, 20.0, 10.0, // channel 1
            ],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 40.0]);
    }
}
