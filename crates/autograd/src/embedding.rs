//! Token/patch embedding layers.

use crate::layer::Layer;
use crate::param::Param;
use colossalai_tensor::init::InitRng;
use colossalai_tensor::{init, pool, Tensor};

/// Lookup-table embedding: input holds integer indices (as `f32` values,
/// the tensor crate's single dtype), output is `[.., dim]`.
pub struct Embedding {
    table: Param,
    cached_indices: Option<Vec<usize>>,
}

impl Embedding {
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut InitRng) -> Self {
        Self::from_table(name, init::normal([vocab, dim], 0.0, 0.02, rng))
    }

    /// Builds from an explicit `[vocab, dim]` table (a hidden-axis slice of
    /// the global one, under the sharded tensor-parallel modes).
    pub fn from_table(name: &str, table: Tensor) -> Self {
        assert_eq!(table.rank(), 2, "embedding table must be [vocab, dim]");
        Embedding {
            table: Param::new(format!("{name}.table"), table),
            cached_indices: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value().dims()[0]
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.value().dims()[1]
    }
}

impl Layer for Embedding {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let dim = self.dim();
        let vocab = self.vocab();
        let indices: Vec<usize> = x
            .data()
            .iter()
            .map(|&v| {
                let i = v as usize;
                assert!(
                    v >= 0.0 && v.fract() == 0.0 && i < vocab,
                    "embedding index {v} invalid for vocab {vocab}"
                );
                i
            })
            .collect();
        let table = self.table.value().data();
        let mut out = pool::take_buffer(indices.len() * dim);
        for &i in &indices {
            out.extend_from_slice(&table[i * dim..(i + 1) * dim]);
        }
        let mut dims = x.dims().to_vec();
        dims.push(dim);
        self.cached_indices = Some(indices);
        Tensor::from_vec(dims, out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let indices = self.cached_indices.take().expect("backward before forward");
        let dim = self.dim();
        assert_eq!(
            dy.numel(),
            indices.len() * dim,
            "upstream gradient shape mismatch"
        );
        {
            let grad = self.table.grad_mut().data_mut();
            for (row, &i) in indices.iter().enumerate() {
                for d in 0..dim {
                    grad[i * dim + d] += dy.data()[row * dim + d];
                }
            }
        }
        // indices are not differentiable; return a zero gradient of the
        // input's shape for interface uniformity
        Tensor::zeros(dy.dims()[..dy.rank() - 1].to_vec())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// Learned absolute position embedding added to a `[b, s, d]` input.
pub struct PositionEmbedding {
    table: Param,
    /// Which `s`-long block of positions the input covers (0 unless the
    /// sequence axis is sharded).
    seq_block: usize,
}

impl PositionEmbedding {
    pub fn new(name: &str, max_len: usize, dim: usize, rng: &mut InitRng) -> Self {
        Self::from_table(name, init::normal([max_len, dim], 0.0, 0.02, rng))
    }

    /// Builds from an explicit `[max_len, dim]` table (a hidden-axis slice of
    /// the global one, under the sharded tensor-parallel modes).
    pub fn from_table(name: &str, table: Tensor) -> Self {
        assert_eq!(table.rank(), 2, "position table must be [max_len, dim]");
        PositionEmbedding {
            table: Param::new(format!("{name}.pos"), table),
            seq_block: 0,
        }
    }

    /// The input is the `block`-th of the equal sub-sequences the full
    /// sequence is split into (sequence parallelism): an `[b, s, d]` input
    /// takes positions `block * s ..`.
    pub fn at_seq_block(mut self, block: usize) -> Self {
        self.seq_block = block;
        self
    }
}

impl Layer for PositionEmbedding {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 3, "position embedding expects [b, s, d]");
        let (s, d) = (x.dims()[1], x.dims()[2]);
        let first = self.seq_block * s;
        assert!(
            first + s <= self.table.value().dims()[0],
            "sequence longer than max_len"
        );
        assert_eq!(d, self.table.value().dims()[1], "dim mismatch");
        let positions = &self.table.value().data()[first * d..(first + s) * d];
        let mut out = x.clone();
        for seq in out.data_mut().chunks_mut((s * d).max(1)) {
            for (o, &p) in seq.iter_mut().zip(positions) {
                *o += p;
            }
        }
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (b, s, d) = (dy.dims()[0], dy.dims()[1], dy.dims()[2]);
        let first = self.seq_block * s;
        {
            let grad = self.table.grad_mut().data_mut();
            for bi in 0..b {
                for si in 0..s {
                    let base = (bi * s + si) * d;
                    for di in 0..d {
                        grad[(first + si) * d + di] += dy.data()[base + di];
                    }
                }
            }
        }
        dy.clone()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_rows() {
        let mut rng = init::rng(30);
        let mut e = Embedding::new("emb", 10, 4, &mut rng);
        let x = Tensor::from_vec([2, 2], vec![0.0, 3.0, 9.0, 3.0]);
        let y = e.forward(&x);
        assert_eq!(y.dims(), &[2, 2, 4]);
        // rows with the same index are identical
        for d in 0..4 {
            assert_eq!(y.at(&[0, 1, d]), y.at(&[1, 1, d]));
        }
    }

    #[test]
    fn backward_scatters_gradient() {
        let mut rng = init::rng(31);
        let mut e = Embedding::new("emb", 5, 2, &mut rng);
        let x = Tensor::from_vec([3], vec![1.0, 1.0, 4.0]);
        let _ = e.forward(&x);
        let dy = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let _ = e.backward(&dy);
        let g = e.table.grad();
        // index 1 hit twice
        assert_eq!(g.at(&[1, 0]), 4.0);
        assert_eq!(g.at(&[1, 1]), 6.0);
        assert_eq!(g.at(&[4, 0]), 5.0);
        assert_eq!(g.at(&[0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid for vocab")]
    fn out_of_vocab_rejected() {
        let mut rng = init::rng(32);
        let mut e = Embedding::new("emb", 5, 2, &mut rng);
        let _ = e.forward(&Tensor::from_vec([1], vec![5.0]));
    }

    #[test]
    fn position_embedding_adds_per_position() {
        let mut rng = init::rng(33);
        let mut p = PositionEmbedding::new("pos", 8, 3, &mut rng);
        let x = Tensor::zeros([2, 4, 3]);
        let y = p.forward(&x);
        // both batch rows got the same position vector
        for s in 0..4 {
            for d in 0..3 {
                assert_eq!(y.at(&[0, s, d]), y.at(&[1, s, d]));
            }
        }
        let _ = p.backward(&Tensor::ones([2, 4, 3]));
        // each position row accumulated b=2
        assert_eq!(p.table.grad().at(&[0, 0]), 2.0);
        assert_eq!(p.table.grad().at(&[3, 2]), 2.0);
        assert_eq!(p.table.grad().at(&[4, 0]), 0.0);
    }
}
