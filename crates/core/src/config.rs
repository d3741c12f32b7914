//! The user-facing configuration schema (Listing 1 of the paper).
//!
//! Users describe *what* acceleration they want declaratively; `initialize`
//! turns it into process groups, wrapped models and optimizers. The schema
//! mirrors the Python dict of Listing 1:
//!
//! ```json
//! {
//!   "parallel": {
//!     "tensor":   { "size": 4, "mode": "2d" },
//!     "pipeline": { "size": 2 },
//!     "data":     { "size": 1 }
//!   },
//!   "zero": { "stage": 2 },
//!   "mixed_precision": true
//! }
//! ```

use colossalai_parallel::TpMode;
use serde::{Deserialize, Serialize, Value};

/// Tensor-parallel mode names accepted in config files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum TensorModeName {
    #[serde(rename = "1d")]
    OneD,
    #[serde(rename = "2d")]
    TwoD,
    #[serde(rename = "2.5d")]
    TwoPointFiveD,
    #[serde(rename = "3d")]
    ThreeD,
    #[serde(rename = "sequence")]
    Sequence,
}

/// Tensor-parallel section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorConfig {
    pub size: usize,
    pub mode: TensorModeName,
    /// Depth for 2.5D (ignored otherwise).
    #[serde(default = "default_depth")]
    pub depth: usize,
}

fn default_depth() -> usize {
    1
}

/// Pipeline-parallel section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    pub size: usize,
}

/// The `parallel` section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ParallelConfig {
    #[serde(default)]
    pub tensor: Option<TensorConfig>,
    #[serde(default)]
    pub pipeline: Option<PipelineConfig>,
    /// Data-parallel degree; 0 or missing = "use all remaining devices".
    #[serde(default)]
    pub data: Option<usize>,
}

/// ZeRO section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroConfig {
    pub stage: u8,
}

/// Communication section: gradient-bucket sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Gradient-sync bucket capacity in megabytes (PyTorch DDP's 25 MB
    /// default). Gradients are fused into buckets of at most this size so
    /// each bucket pays one all-reduce latency term.
    #[serde(default = "default_bucket_mb")]
    pub bucket_mb: usize,
}

fn default_bucket_mb() -> usize {
    25
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            bucket_mb: default_bucket_mb(),
        }
    }
}

/// Top-level configuration. There is no compute section: kernels have one
/// arithmetic (DESIGN.md §13) and no thread budget (a kernel runs on its
/// rank's thread, and the world executor hands the host cores to ranks).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct Config {
    #[serde(default)]
    pub parallel: ParallelConfig,
    #[serde(default)]
    pub zero: Option<ZeroConfig>,
    /// Dynamic loss scaling ([`crate::amp::GradScaler`]); the arithmetic
    /// stays f32.
    #[serde(default)]
    pub mixed_precision: bool,
    /// Gradient clipping threshold (0 disables; must be finite and not
    /// negative).
    #[serde(default)]
    pub grad_clip: f32,
    /// Micro-batches accumulated per optimizer step (0/1 = no accumulation).
    #[serde(default)]
    pub gradient_accumulation: u32,
    /// Gradient-sync bucketing.
    #[serde(default)]
    pub comm: CommConfig,
}

impl Config {
    /// Parses a JSON config string. A key the schema does not know is an
    /// error naming the path to the first value under it (`unknown key
    /// "compute.threads"`), never silently ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use colossalai_core::Config;
    ///
    /// let cfg = Config::from_json(
    ///     r#"{ "parallel": { "tensor": { "size": 4, "mode": "2d" } },
    ///          "mixed_precision": true }"#,
    /// ).unwrap();
    /// assert_eq!(cfg.tensor_size(), 4);
    /// assert!(cfg.mixed_precision);
    /// ```
    pub fn from_json(json: &str) -> Result<Config, String> {
        let given: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let cfg = Config::deserialize_value(&given)?;
        reject_unknown_keys(&given, &cfg.serialize_value(), "")?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Tensor-parallel degree (1 when unset).
    pub fn tensor_size(&self) -> usize {
        self.parallel.tensor.map_or(1, |t| t.size)
    }

    /// Pipeline-parallel degree (1 when unset).
    pub fn pipeline_size(&self) -> usize {
        self.parallel.pipeline.map_or(1, |p| p.size)
    }

    /// The tensor-parallel mode as the `colossalai-parallel` enum, or
    /// `None` for sequence parallelism / no tensor parallelism.
    pub fn tp_mode(&self) -> Option<TpMode> {
        let t = self.parallel.tensor?;
        Some(match t.mode {
            TensorModeName::OneD => TpMode::OneD,
            TensorModeName::TwoD => TpMode::TwoD,
            TensorModeName::TwoPointFiveD => TpMode::TwoPointFiveD { depth: t.depth },
            TensorModeName::ThreeD => TpMode::ThreeD,
            TensorModeName::Sequence => return None,
        })
    }

    /// Validates internal consistency (grid shapes, ZeRO stage range,
    /// clipping threshold, ...).
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.parallel.tensor {
            if t.size == 0 {
                return Err("tensor parallel size must be >= 1".into());
            }
            if let Some(mode) = self.tp_mode() {
                if !mode.admits(t.size) {
                    return Err(format!(
                        "{} tensor parallelism does not admit size {} (fall back to 1d)",
                        mode.label(),
                        t.size
                    ));
                }
            }
        }
        if self.parallel.pipeline.is_some_and(|p| p.size == 0) {
            return Err("pipeline size must be >= 1".into());
        }
        if let Some(z) = self.zero {
            if !(1..=3).contains(&z.stage) {
                return Err(format!("ZeRO stage must be 1..=3, got {}", z.stage));
            }
        }
        if !(self.grad_clip.is_finite() && self.grad_clip >= 0.0) {
            return Err(format!(
                "grad_clip must be finite and >= 0 (0 disables), got {}",
                self.grad_clip
            ));
        }
        Ok(())
    }

    /// Gradient-sync bucket capacity in bytes.
    pub fn bucket_bytes(&self) -> usize {
        self.comm.bucket_mb << 20
    }
}

/// Fails on the first key of `given` (the parsed JSON) that `known` (the
/// config it deserialized to, serialized back) does not have, naming the
/// dotted path to it — continued down the first entry of any object under
/// it, so a removed section is reported at the key that set something
/// (`compute.threads`, not `compute`).
fn reject_unknown_keys(given: &Value, known: &Value, path: &str) -> Result<(), String> {
    let Value::Map(entries) = given else {
        return Ok(());
    };
    for (key, sub) in entries {
        let mut here = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        let Some(known_sub) = known.get(key) else {
            let mut v = sub;
            while let Value::Map(inner) = v {
                let Some((k, next)) = inner.first() else {
                    break;
                };
                here = format!("{here}.{k}");
                v = next;
            }
            return Err(format!("unknown key {here:?}"));
        };
        reject_unknown_keys(sub, known_sub, &here)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_style_config_parses() {
        let cfg = Config::from_json(r#"{ "parallel": { "tensor": { "size": 4, "mode": "1d" } } }"#)
            .unwrap();
        assert_eq!(cfg.tensor_size(), 4);
        assert_eq!(cfg.tp_mode(), Some(TpMode::OneD));
        assert_eq!(cfg.pipeline_size(), 1);
    }

    #[test]
    fn all_modes_parse() {
        for (name, size) in [
            ("1d", 3),
            ("2d", 4),
            ("2.5d", 8),
            ("3d", 8),
            ("sequence", 5),
        ] {
            let json = format!(
                r#"{{ "parallel": {{ "tensor": {{ "size": {size}, "mode": "{name}", "depth": 2 }} }} }}"#
            );
            let cfg = Config::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(cfg.tensor_size(), size);
        }
    }

    #[test]
    fn invalid_grid_rejected() {
        let err = Config::from_json(r#"{ "parallel": { "tensor": { "size": 3, "mode": "2d" } } }"#)
            .unwrap_err();
        assert!(err.contains("does not admit"), "{err}");
    }

    #[test]
    fn zero_stage_bounds() {
        assert!(Config::from_json(r#"{ "zero": { "stage": 0 } }"#).is_err());
        assert!(Config::from_json(r#"{ "zero": { "stage": 4 } }"#).is_err());
        assert!(Config::from_json(r#"{ "zero": { "stage": 3 } }"#).is_ok());
    }

    #[test]
    fn grad_clip_bounds() {
        let err = Config::from_json(r#"{ "grad_clip": -1.0 }"#).unwrap_err();
        assert!(err.contains("grad_clip"), "{err}");
        for bad in [f32::NAN, f32::INFINITY] {
            let cfg = Config {
                grad_clip: bad,
                ..Config::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("grad_clip"), "{err}");
        }
        let cfg = Config::from_json(r#"{ "grad_clip": 1.0 }"#).unwrap();
        assert_eq!(cfg.grad_clip, 1.0);
        assert_eq!(Config::from_json("{}").unwrap().grad_clip, 0.0);
    }

    #[test]
    fn gradient_accumulation_parses_and_guards() {
        let cfg = Config::from_json(r#"{ "gradient_accumulation": 4 }"#).unwrap();
        assert_eq!(cfg.gradient_accumulation, 4);
    }

    #[test]
    fn defaults_are_serial() {
        let cfg = Config::from_json("{}").unwrap();
        assert_eq!((cfg.tensor_size(), cfg.pipeline_size()), (1, 1));
        assert!(!cfg.mixed_precision);
        assert!(cfg.tp_mode().is_none());
    }

    #[test]
    fn comm_section_defaults_and_parses() {
        let cfg = Config::from_json("{}").unwrap();
        assert_eq!(cfg.comm.bucket_mb, 25);
        assert_eq!(cfg.bucket_bytes(), 25 << 20);
        // partial section: missing keys take their defaults
        let cfg = Config::from_json(r#"{ "comm": { "bucket_mb": 4 } }"#).unwrap();
        assert_eq!(cfg.bucket_bytes(), 4 << 20);
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_path() {
        for (json, path) in [
            // a top-level typo (would otherwise train in fp32 without a word)
            (r#"{ "mixed_percision": true }"#, "mixed_percision"),
            // a nested typo
            (
                r#"{ "parallel": { "tensor": { "size": 2, "mode": "1d", "dept": 2 } } }"#,
                "parallel.tensor.dept",
            ),
            (r#"{ "comm": { "bucket_mbs": 4 } }"#, "comm.bucket_mbs"),
            // the removed keys: old configs must fail, not be half-applied
            (r#"{ "mem": { "pool": false } }"#, "mem.pool"),
            (
                r#"{ "compute": { "par_cutoff": 1 } }"#,
                "compute.par_cutoff",
            ),
            (
                r#"{ "compute": { "par_flop_cutoff": 4096 } }"#,
                "compute.par_flop_cutoff",
            ),
            (r#"{ "compute": { "threads": 2 } }"#, "compute.threads"),
            (r#"{ "comm": { "compress": "int8" } }"#, "comm.compress"),
            (
                r#"{ "parallel": { "pipeline": { "size": 2, "micro_batches": 8 } } }"#,
                "parallel.pipeline.micro_batches",
            ),
            (
                r#"{ "activation_checkpoint": true }"#,
                "activation_checkpoint",
            ),
            (r#"{ "compute": {} }"#, "compute"),
        ] {
            let err = Config::from_json(json).unwrap_err();
            assert_eq!(err, format!("unknown key {path:?}"), "{json}");
        }
        // null sections and every known key still parse
        let full = serde_json::to_string(&Config::default()).unwrap();
        assert_eq!(Config::from_json(&full).unwrap(), Config::default());
    }

    #[test]
    fn roundtrip_serialization() {
        let cfg = Config::from_json(
            r#"{ "parallel": { "tensor": { "size": 8, "mode": "2.5d", "depth": 2 },
                               "pipeline": { "size": 2 } },
                 "mixed_precision": true, "grad_clip": 1.0 }"#,
        )
        .unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back = Config::from_json(&json).unwrap();
        assert_eq!(cfg, back);
        assert_eq!((back.tensor_size(), back.pipeline_size()), (8, 2));
    }
}
