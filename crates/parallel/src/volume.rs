//! Closed-form communication volumes of Table 1 and the Fig 5 scaling
//! series.
//!
//! All formulas count *elements transferred in total across all devices* for
//! the matrix multiplication `Y = W X` with `X: (b, s, h)`, `W: (h, n)`,
//! `Y: (b, s, n)`, exactly as the paper defines them (the paper tabulates
//! the square case `n = h`; a model's linears are not all square).

/// Problem sizes for one `Y = W X` multiplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatmulShape {
    /// Batch size `b`.
    pub b: usize,
    /// Sequence length `s`.
    pub s: usize,
    /// Input width `h` (weight is `h x n`).
    pub h: usize,
    /// Output width `n` (`h` in Table 1 and Fig 5).
    pub n: usize,
}

impl MatmulShape {
    /// Elements of the input `X` (`S_X = b * s * h`).
    pub fn s_x(&self) -> u64 {
        (self.b * self.s * self.h) as u64
    }

    /// Elements of the weight `W` (`S_W = h * n`).
    pub fn s_w(&self) -> u64 {
        (self.h * self.n) as u64
    }

    /// Elements of the output `Y` (equal to `S_X` for a square weight).
    pub fn s_y(&self) -> u64 {
        (self.b * self.s * self.n) as u64
    }
}

/// Table 1, row "1D": `2 (p - 1) S_X`.
pub fn volume_1d(shape: MatmulShape, p: usize) -> u64 {
    assert!(p >= 1);
    2 * (p as u64 - 1) * shape.s_x()
}

/// Table 1, row "2D": `3 (j - 1) (S_X + S_W)` on a `j x j` grid (`p = j^2`).
pub fn volume_2d(shape: MatmulShape, j: usize) -> u64 {
    assert!(j >= 1);
    3 * (j as u64 - 1) * (shape.s_x() + shape.s_w())
}

/// Table 1, row "2.5D": `3 (k - 1) (S_X / d + S_W)` on a `k x k x d` cuboid
/// (`p = d k^2`).
pub fn volume_25d(shape: MatmulShape, k: usize, d: usize) -> u64 {
    assert!(k >= 1 && d >= 1);
    3 * (k as u64 - 1) * (shape.s_x() / d as u64 + shape.s_w())
}

/// Table 1, row "3D": `2 (l - 1) / l * (S_X + S_W + S_Y)` on an `l^3` cube.
pub fn volume_3d(shape: MatmulShape, l: usize) -> u64 {
    assert!(l >= 1);
    2 * (l as u64 - 1) * (shape.s_x() + shape.s_w() + shape.s_y()) / l as u64
}

/// Grid-shape requirements of each mode (Section 2.2): returns the grid
/// parameter for `p` devices, or `None` when `p` does not fit the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpMode {
    OneD,
    TwoD,
    TwoPointFiveD { depth: usize },
    ThreeD,
}

impl TpMode {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            TpMode::OneD => "1D".into(),
            TpMode::TwoD => "2D".into(),
            TpMode::TwoPointFiveD { depth } => format!("2.5D (d={depth})"),
            TpMode::ThreeD => "3D".into(),
        }
    }

    /// Whether `p` devices can form this mode's required topology
    /// (`any`, `j^2`, `d*k^2`, `l^3` respectively).
    pub fn admits(&self, p: usize) -> bool {
        match self {
            TpMode::OneD => p >= 1,
            TpMode::TwoD => int_sqrt(p).is_some(),
            TpMode::TwoPointFiveD { depth } => {
                p.is_multiple_of(*depth) && int_sqrt(p / depth).is_some()
            }
            TpMode::ThreeD => int_cbrt(p).is_some(),
        }
    }

    /// Total communication volume (elements) for `Y = W X` over `p` devices.
    /// Panics if `p` does not fit the mode's topology.
    pub fn volume(&self, shape: MatmulShape, p: usize) -> u64 {
        assert!(self.admits(p), "{} does not admit p = {p}", self.label());
        match self {
            TpMode::OneD => volume_1d(shape, p),
            TpMode::TwoD => volume_2d(shape, int_sqrt(p).unwrap()),
            TpMode::TwoPointFiveD { depth } => {
                volume_25d(shape, int_sqrt(p / depth).unwrap(), *depth)
            }
            TpMode::ThreeD => volume_3d(shape, int_cbrt(p).unwrap()),
        }
    }
}

/// Exact integer square root, if `p` is a perfect square.
pub fn int_sqrt(p: usize) -> Option<usize> {
    let r = (p as f64).sqrt().round() as usize;
    (r * r == p).then_some(r)
}

/// Exact integer cube root, if `p` is a perfect cube.
pub fn int_cbrt(p: usize) -> Option<usize> {
    let r = (p as f64).cbrt().round() as usize;
    (r * r * r == p).then_some(r)
}

/// The Fig 5 series: communication volume of every admissible mode for each
/// device count, at the figure's shape (h = 1024, s = 512, b = 32).
pub fn fig5_series(device_counts: &[usize]) -> Vec<(usize, Vec<(String, u64)>)> {
    let shape = MatmulShape {
        b: 32,
        s: 512,
        h: 1024,
        n: 1024,
    };
    device_counts
        .iter()
        .map(|&p| {
            let mut rows = Vec::new();
            for mode in [
                TpMode::OneD,
                TpMode::TwoD,
                TpMode::TwoPointFiveD { depth: 2 },
                TpMode::ThreeD,
            ] {
                if mode.admits(p) {
                    rows.push((mode.label(), mode.volume(shape, p)));
                }
            }
            (p, rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: MatmulShape = MatmulShape {
        b: 32,
        s: 512,
        h: 1024,
        n: 1024,
    };

    #[test]
    fn element_counts() {
        assert_eq!(SHAPE.s_x(), 32 * 512 * 1024);
        assert_eq!(SHAPE.s_w(), 1024 * 1024);
        assert_eq!(SHAPE.s_y(), SHAPE.s_x());
    }

    #[test]
    fn integer_roots() {
        assert_eq!(int_sqrt(16), Some(4));
        assert_eq!(int_sqrt(15), None);
        assert_eq!(int_cbrt(27), Some(3));
        assert_eq!(int_cbrt(26), None);
        assert_eq!(int_cbrt(64), Some(4));
    }

    #[test]
    fn topology_admission_rules() {
        assert!(TpMode::OneD.admits(7));
        assert!(TpMode::TwoD.admits(16));
        assert!(!TpMode::TwoD.admits(8));
        assert!(TpMode::TwoPointFiveD { depth: 2 }.admits(8)); // 2 * 2^2
        assert!(!TpMode::TwoPointFiveD { depth: 2 }.admits(6));
        assert!(TpMode::ThreeD.admits(8));
        assert!(!TpMode::ThreeD.admits(16));
    }

    #[test]
    fn single_device_volumes_are_zero() {
        for mode in [
            TpMode::OneD,
            TpMode::TwoD,
            TpMode::TwoPointFiveD { depth: 1 },
            TpMode::ThreeD,
        ] {
            assert_eq!(mode.volume(SHAPE, 1), 0, "{}", mode.label());
        }
    }

    #[test]
    fn advanced_modes_beat_1d_at_scale() {
        // the crux of Fig 5: by 64 devices, every advanced mode moves less
        for p in [64usize, 256] {
            let v1 = TpMode::OneD.volume(SHAPE, p);
            assert!(TpMode::TwoD.volume(SHAPE, p) < v1, "2D at p={p}");
            if TpMode::ThreeD.admits(p) {
                assert!(TpMode::ThreeD.volume(SHAPE, p) < v1, "3D at p={p}");
            }
            let m25 = TpMode::TwoPointFiveD { depth: 4 };
            if m25.admits(p) {
                assert!(m25.volume(SHAPE, p) < v1, "2.5D at p={p}");
            }
        }
    }

    #[test]
    fn one_d_grows_linearly_advanced_sublinearly() {
        let v1_small = TpMode::OneD.volume(SHAPE, 16) as f64;
        let v1_large = TpMode::OneD.volume(SHAPE, 256) as f64;
        assert!((v1_large / v1_small - 17.0).abs() < 0.1); // (256-1)/(16-1)
        let v2_small = TpMode::TwoD.volume(SHAPE, 16) as f64;
        let v2_large = TpMode::TwoD.volume(SHAPE, 256) as f64;
        assert!(v2_large / v2_small < 6.0); // (sqrt grows ~4x)
    }

    #[test]
    fn depth_reduces_25d_volume() {
        // more depth shards the activations further
        let v_d1 = volume_25d(SHAPE, 4, 1);
        let v_d4 = volume_25d(SHAPE, 4, 4);
        assert!(v_d4 < v_d1);
    }

    #[test]
    fn fig5_series_mode_availability() {
        let series = fig5_series(&[4, 8, 16, 64]);
        let labels_at = |p: usize| -> Vec<String> {
            series
                .iter()
                .find(|(q, _)| *q == p)
                .unwrap()
                .1
                .iter()
                .map(|(l, _)| l.clone())
                .collect()
        };
        // p=4: 1D and 2D (2.5D d=2 would need k^2=2; 3D needs a cube)
        assert_eq!(labels_at(4), vec!["1D", "2D"]);
        // p=8: 2.5D (d=2, k=2) and 3D (l=2) but not 2D
        assert_eq!(labels_at(8), vec!["1D", "2.5D (d=2)", "3D"]);
        // p=64: everything except 2.5D with depth 2 (32 is not a square)
        assert_eq!(labels_at(64), vec!["1D", "2D", "3D"]);
    }

    #[test]
    fn table1_formula_spot_checks() {
        // hand-computed values
        let s = MatmulShape {
            b: 1,
            s: 2,
            h: 4,
            n: 4,
        };
        // S_X = 8, S_W = 16
        assert_eq!(volume_1d(s, 4), 2 * 3 * 8);
        assert_eq!(volume_2d(s, 2), 3 * (8 + 16));
        assert_eq!(volume_25d(s, 2, 2), 3 * (4 + 16));
        assert_eq!(volume_3d(s, 2), 2 * (8 + 16 + 8) / 2);
    }
}
