//! Partitioning a dataset across workers.
//!
//! The paper's proof assumes workers draw i.i.d. gradients (assumption 3).
//! Real federations are heterogeneous, so this module also provides
//! label-skewed partitions — a Dirichlet mixture (the standard federated-
//! learning benchmark protocol) and hard class shards — used by the
//! `repro noniid` table to probe how GuanYu's Multi-Krum behaves when
//! *honest* gradients disagree.

use tensor::TensorRng;

use crate::{Dataset, DatasetError, Result};

/// How examples are distributed across workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partition {
    /// Every worker samples from the full dataset (the paper's setting).
    Iid,
    /// Label-skewed split: for each class, worker shares are drawn from a
    /// symmetric Dirichlet(α). Small α → near-disjoint class ownership;
    /// large α → approaches IID.
    Dirichlet {
        /// Concentration parameter (> 0).
        alpha: f32,
    },
    /// Hard shards: each worker holds examples of at most
    /// `classes_per_worker` classes (round-robin assignment).
    Shards {
        /// Number of distinct classes per worker (≥ 1).
        classes_per_worker: usize,
    },
}

/// Samples Gamma(shape, 1) via Marsaglia–Tsang (with the boost for
/// shape < 1).
fn sample_gamma(shape: f64, rng: &mut TensorRng) -> f64 {
    if shape < 1.0 {
        // boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u = rng.uniform(f32::EPSILON, 1.0) as f64;
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.normal(0.0, 1.0) as f64;
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.uniform(f32::EPSILON, 1.0) as f64;
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Samples a probability vector from a symmetric Dirichlet(α) of length `k`.
fn sample_dirichlet(alpha: f64, k: usize, rng: &mut TensorRng) -> Vec<f64> {
    let gammas: Vec<f64> = (0..k).map(|_| sample_gamma(alpha, rng)).collect();
    let sum: f64 = gammas.iter().sum();
    if sum <= 0.0 {
        return vec![1.0 / k as f64; k];
    }
    gammas.into_iter().map(|g| g / sum).collect()
}

/// Splits `dataset`'s example indices into one shard per worker.
///
/// Every example lands in exactly one shard (for [`Partition::Iid`] the
/// examples are shuffled round-robin, so shards are balanced i.i.d.
/// samples). Shards are never empty: leftover redistribution guarantees
/// at least one example per worker as long as `len ≥ workers`.
///
/// # Errors
///
/// Returns [`DatasetError::Io`] (configuration error) when `workers` is 0,
/// the dataset is smaller than the worker count, or a strategy parameter is
/// invalid.
pub fn partition_indices(
    dataset: &Dataset,
    workers: usize,
    strategy: Partition,
    seed: u64,
) -> Result<Vec<Vec<usize>>> {
    if workers == 0 {
        return Err(DatasetError::Io("cannot partition across 0 workers".into()));
    }
    if dataset.len() < workers {
        return Err(DatasetError::Io(format!(
            "{} examples cannot cover {workers} workers",
            dataset.len()
        )));
    }
    let mut rng = TensorRng::new(seed ^ 0xD1E7);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); workers];
    match strategy {
        Partition::Iid => {
            let mut idx: Vec<usize> = (0..dataset.len()).collect();
            rng.shuffle(&mut idx);
            for (i, example) in idx.into_iter().enumerate() {
                shards[i % workers].push(example);
            }
        }
        Partition::Dirichlet { alpha } => {
            if alpha <= 0.0 {
                return Err(DatasetError::Io("dirichlet alpha must be > 0".into()));
            }
            let classes = dataset.num_classes();
            // indices per class
            let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
            for (i, &l) in dataset.labels().iter().enumerate() {
                per_class[l].push(i);
            }
            for mut class_idx in per_class {
                rng.shuffle(&mut class_idx);
                let props = sample_dirichlet(alpha as f64, workers, &mut rng);
                // convert proportions to cumulative counts
                let n = class_idx.len();
                let mut start = 0usize;
                let mut acc = 0.0f64;
                for (w, &p) in props.iter().enumerate() {
                    acc += p;
                    let end = if w + 1 == workers {
                        n
                    } else {
                        ((acc * n as f64).round() as usize).min(n)
                    };
                    shards[w].extend(&class_idx[start..end.max(start)]);
                    start = end.max(start);
                }
            }
        }
        Partition::Shards { classes_per_worker } => {
            if classes_per_worker == 0 {
                return Err(DatasetError::Io("classes_per_worker must be >= 1".into()));
            }
            let classes = dataset.num_classes();
            // worker w owns classes {w*cpw, ...} mod classes
            for (i, &l) in dataset.labels().iter().enumerate() {
                // find workers whose class set contains l; round-robin among them
                let owners: Vec<usize> = (0..workers)
                    .filter(|&w| {
                        (0..classes_per_worker).any(|k| (w * classes_per_worker + k) % classes == l)
                    })
                    .collect();
                let w = if owners.is_empty() {
                    i % workers
                } else {
                    owners[i % owners.len()]
                };
                shards[w].push(i);
            }
        }
    }
    // Guarantee non-empty shards: steal from the largest.
    for w in 0..workers {
        if shards[w].is_empty() {
            let donor = (0..workers)
                .max_by_key(|&d| shards[d].len())
                .expect("workers > 0");
            if shards[donor].len() > 1 {
                let moved = shards[donor].pop().expect("non-empty donor");
                shards[w].push(moved);
            }
        }
    }
    Ok(shards)
}

/// Materialises each shard as its own [`Dataset`].
///
/// # Errors
///
/// Same conditions as [`partition_indices`], plus tensor errors.
pub fn partition_dataset(
    dataset: &Dataset,
    workers: usize,
    strategy: Partition,
    seed: u64,
) -> Result<Vec<Dataset>> {
    let shards = partition_indices(dataset, workers, strategy, seed)?;
    shards
        .into_iter()
        .map(|idx| {
            let (x, y) = dataset.batch(&idx)?;
            Dataset::new(x, y, dataset.num_classes())
        })
        .collect()
}

/// Label-skew measure: mean total-variation distance between each shard's
/// label distribution and the global one (0 = perfectly IID, →1 = fully
/// skewed).
pub fn label_skew(dataset: &Dataset, shards: &[Vec<usize>]) -> f32 {
    let classes = dataset.num_classes();
    let global = {
        let hist = dataset.class_histogram();
        let n = dataset.len() as f32;
        hist.into_iter().map(|c| c as f32 / n).collect::<Vec<_>>()
    };
    let labels = dataset.labels();
    let mut total = 0.0f32;
    let mut counted = 0usize;
    for shard in shards {
        if shard.is_empty() {
            continue;
        }
        let mut hist = vec![0f32; classes];
        for &i in shard {
            hist[labels[i]] += 1.0;
        }
        let n = shard.len() as f32;
        let tv: f32 = hist
            .iter()
            .zip(&global)
            .map(|(h, g)| (h / n - g).abs())
            .sum::<f32>()
            / 2.0;
        total += tv;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{synthetic_cifar, SyntheticConfig};

    fn data(n: usize) -> Dataset {
        synthetic_cifar(&SyntheticConfig {
            train: n,
            test: 0,
            side: 8,
            ..Default::default()
        })
        .unwrap()
        .0
    }

    #[test]
    fn iid_covers_every_example_once() {
        let d = data(100);
        let shards = partition_indices(&d, 7, Partition::Iid, 0).unwrap();
        let mut all: Vec<usize> = shards.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn iid_is_balanced() {
        let d = data(100);
        let shards = partition_indices(&d, 4, Partition::Iid, 1).unwrap();
        for s in &shards {
            assert_eq!(s.len(), 25);
        }
    }

    #[test]
    fn iid_has_low_skew() {
        let d = data(400);
        let shards = partition_indices(&d, 4, Partition::Iid, 2).unwrap();
        assert!(label_skew(&d, &shards) < 0.15);
    }

    #[test]
    fn dirichlet_small_alpha_is_skewed() {
        let d = data(400);
        let iid = partition_indices(&d, 8, Partition::Iid, 3).unwrap();
        let skewed = partition_indices(&d, 8, Partition::Dirichlet { alpha: 0.1 }, 3).unwrap();
        assert!(
            label_skew(&d, &skewed) > label_skew(&d, &iid) + 0.2,
            "α=0.1 should skew much more than IID: {} vs {}",
            label_skew(&d, &skewed),
            label_skew(&d, &iid)
        );
        // still a partition
        let mut all: Vec<usize> = skewed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn dirichlet_large_alpha_approaches_iid() {
        let d = data(400);
        let near_iid = partition_indices(&d, 8, Partition::Dirichlet { alpha: 100.0 }, 4).unwrap();
        assert!(label_skew(&d, &near_iid) < 0.25);
    }

    #[test]
    fn shards_limit_classes_per_worker() {
        let d = data(400);
        let shards = partition_indices(
            &d,
            10,
            Partition::Shards {
                classes_per_worker: 1,
            },
            5,
        )
        .unwrap();
        for (w, shard) in shards.iter().enumerate() {
            let mut classes: Vec<usize> = shard.iter().map(|&i| d.labels()[i]).collect();
            classes.sort_unstable();
            classes.dedup();
            assert!(
                classes.len() <= 2,
                "worker {w} holds classes {classes:?} (1 owned + at most 1 stolen)"
            );
        }
    }

    #[test]
    fn no_empty_shards() {
        let d = data(60);
        for strategy in [
            Partition::Iid,
            Partition::Dirichlet { alpha: 0.05 },
            Partition::Shards {
                classes_per_worker: 2,
            },
        ] {
            let shards = partition_indices(&d, 6, strategy, 6).unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert!(!s.is_empty(), "shard {i} empty under {strategy:?}");
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let d = data(10);
        assert!(partition_indices(&d, 0, Partition::Iid, 0).is_err());
        assert!(partition_indices(&d, 11, Partition::Iid, 0).is_err());
        assert!(partition_indices(&d, 2, Partition::Dirichlet { alpha: 0.0 }, 0).is_err());
        assert!(partition_indices(
            &d,
            2,
            Partition::Shards {
                classes_per_worker: 0
            },
            0
        )
        .is_err());
    }

    #[test]
    fn partition_dataset_materialises_shards() {
        let d = data(40);
        let sets = partition_dataset(&d, 4, Partition::Iid, 7).unwrap();
        assert_eq!(sets.len(), 4);
        let total: usize = sets.iter().map(Dataset::len).sum();
        assert_eq!(total, 40);
        for s in &sets {
            assert_eq!(s.num_classes(), 10);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = data(80);
        let a = partition_indices(&d, 5, Partition::Dirichlet { alpha: 0.5 }, 9).unwrap();
        let b = partition_indices(&d, 5, Partition::Dirichlet { alpha: 0.5 }, 9).unwrap();
        assert_eq!(a, b);
        let c = partition_indices(&d, 5, Partition::Dirichlet { alpha: 0.5 }, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn gamma_sampler_mean_is_shape() {
        let mut rng = TensorRng::new(11);
        let n = 5000;
        for shape in [0.5f64, 1.0, 3.0] {
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "Gamma({shape}) sample mean {mean}"
            );
        }
    }
}
