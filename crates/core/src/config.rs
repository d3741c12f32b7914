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
//!   "mixed_precision": true,
//!   "activation_checkpoint": false
//! }
//! ```

use colossalai_comm::compress::Compression;
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
    #[serde(default = "default_micro_batches")]
    pub micro_batches: usize,
}

fn default_micro_batches() -> usize {
    4
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

/// A gradient-compression channel in its config spelling (`"none"`,
/// `"topk(k)"`, `"int8"`, `"fp16"`); serializes as that string. Wrapping
/// [`Compression`] keeps serde at the config boundary (and `Config: Copy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressSpec(pub Compression);

impl Serialize for CompressSpec {
    fn serialize_value(&self) -> Value {
        Value::Str(self.0.name())
    }
}

impl Deserialize for CompressSpec {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        let raw = String::deserialize_value(v)?;
        Compression::parse(&raw).map(CompressSpec).ok_or_else(|| {
            format!("invalid comm.compress {raw:?}: expected none|topk(k>=1)|int8|fp16")
        })
    }
}

/// Communication section: gradient-bucket sizing and the lossy gradient
/// channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Gradient-sync bucket capacity in megabytes (PyTorch DDP's 25 MB
    /// default). Gradients are fused into buckets of at most this size so
    /// each bucket pays one all-reduce latency term.
    #[serde(default = "default_bucket_mb")]
    pub bucket_mb: usize,
    /// Lossy gradient-compression channel for bucketed sync: `"none"`,
    /// `"topk(k)"`, `"int8"` or `"fp16"`, each with error feedback.
    /// Missing = none (exact f32 gradients).
    #[serde(default)]
    pub compress: Option<CompressSpec>,
}

fn default_bucket_mb() -> usize {
    25
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            bucket_mb: default_bucket_mb(),
            compress: None,
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
    #[serde(default)]
    pub mixed_precision: bool,
    #[serde(default)]
    pub activation_checkpoint: bool,
    /// Gradient clipping threshold (0 disables).
    #[serde(default)]
    pub grad_clip: f32,
    /// Micro-batches accumulated per optimizer step (0/1 = no accumulation).
    #[serde(default)]
    pub gradient_accumulation: u32,
    /// Gradient-sync bucketing and compression.
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

    /// True if the tensor section requests sequence parallelism.
    pub fn is_sequence_parallel(&self) -> bool {
        matches!(
            self.parallel.tensor,
            Some(TensorConfig {
                mode: TensorModeName::Sequence,
                ..
            })
        )
    }

    /// Validates internal consistency (grid shapes, ZeRO stage range, ...).
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
        if let Some(p) = self.parallel.pipeline {
            if p.size == 0 || p.micro_batches == 0 {
                return Err("pipeline size and micro_batches must be >= 1".into());
            }
        }
        if self.gradient_accumulation > 1 && self.zero.is_some() {
            return Err(
                "gradient accumulation with ZeRO is not supported in this reproduction".into(),
            );
        }
        if let Some(z) = self.zero {
            if !(1..=3).contains(&z.stage) {
                return Err(format!("ZeRO stage must be 1..=3, got {}", z.stage));
            }
            if self.tensor_size() > 1 {
                return Err("ZeRO combines with data parallelism only in this reproduction".into());
            }
            if let Compression::TopK(_) = self.compression() {
                // there is no sparse reduce-scatter wire format: ZeRO would
                // run the exact dense channel and compress nothing
                return Err(format!(
                    "comm.compress {:?} does not combine with zero: top-k is a \
                     data-parallel-only channel (use int8 or fp16)",
                    self.compression().name()
                ));
            }
        }
        Ok(())
    }

    /// Total devices this configuration occupies per data-parallel replica.
    pub fn devices_per_replica(&self) -> usize {
        self.tensor_size() * self.pipeline_size()
    }

    /// Gradient-sync bucket capacity in bytes.
    pub fn bucket_bytes(&self) -> usize {
        self.comm.bucket_mb << 20
    }

    /// The gradient-compression channel this config asks for
    /// (`comm.compress`; none when missing).
    pub fn compression(&self) -> Compression {
        self.comm.compress.map_or(Compression::None, |c| c.0)
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
    fn zero_with_topk_rejected_naming_both_keys() {
        let err =
            Config::from_json(r#"{ "zero": { "stage": 2 }, "comm": { "compress": "topk(8)" } }"#)
                .unwrap_err();
        assert!(
            err.contains("comm.compress") && err.contains("zero"),
            "{err}"
        );
        assert!(err.contains("topk(8)"), "{err}");
        // the dense lossy channels and top-k without ZeRO stay valid
        for ok in [
            r#"{ "zero": { "stage": 2 }, "comm": { "compress": "int8" } }"#,
            r#"{ "zero": { "stage": 1 }, "comm": { "compress": "fp16" } }"#,
            r#"{ "comm": { "compress": "topk(8)" } }"#,
        ] {
            assert!(Config::from_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn zero_with_tensor_parallel_rejected() {
        let err = Config::from_json(
            r#"{ "parallel": { "tensor": { "size": 2, "mode": "1d" } }, "zero": { "stage": 2 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("ZeRO"), "{err}");
    }

    #[test]
    fn gradient_accumulation_parses_and_guards() {
        let cfg = Config::from_json(r#"{ "gradient_accumulation": 4 }"#).unwrap();
        assert_eq!(cfg.gradient_accumulation, 4);
        assert!(
            Config::from_json(r#"{ "gradient_accumulation": 2, "zero": { "stage": 1 } }"#).is_err()
        );
    }

    #[test]
    fn defaults_are_serial() {
        let cfg = Config::from_json("{}").unwrap();
        assert_eq!(cfg.devices_per_replica(), 1);
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
        assert_eq!(cfg.comm.compress, None);
        assert_eq!(cfg.compression(), Compression::None, "missing = none");
    }

    #[test]
    fn comm_compress_parses_and_rejects_garbage() {
        for (raw, want) in [
            ("none", Compression::None),
            ("int8", Compression::Int8),
            ("fp16", Compression::Fp16),
            ("topk(4096)", Compression::TopK(4096)),
        ] {
            let cfg =
                Config::from_json(&format!(r#"{{ "comm": {{ "compress": "{raw}" }} }}"#)).unwrap();
            assert_eq!(cfg.comm.compress, Some(CompressSpec(want)), "{raw}");
            assert_eq!(cfg.compression(), want);
        }
        for bad in ["topk(0)", "int4", "gzip"] {
            let err = Config::from_json(&format!(r#"{{ "comm": {{ "compress": "{bad}" }} }}"#))
                .unwrap_err();
            assert!(err.contains("compress"), "{bad}: {err}");
        }
        // round-trips through serialization as the spelling string
        let cfg = Config::from_json(r#"{ "comm": { "compress": "topk(32)" } }"#).unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains(r#""compress":"topk(32)""#), "{json}");
        assert_eq!(Config::from_json(&json).unwrap(), cfg);
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
                               "pipeline": { "size": 2, "micro_batches": 8 } },
                 "mixed_precision": true, "grad_clip": 1.0 }"#,
        )
        .unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back = Config::from_json(&json).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(back.devices_per_replica(), 16);
    }
}
