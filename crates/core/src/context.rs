//! The parallel context manager (Fig 1): carves the device space into
//! data- / pipeline- / tensor-parallel axes and hands out the process-group
//! member lists each axis needs.
//!
//! Device layout (matching Colossal-AI's `gpc`): the global rank factorizes
//! as `rank = ((dp * pipeline_size) + pp) * tensor_size + tp`, i.e. tensor
//! groups are innermost (NVLink-adjacent devices), then pipeline stages,
//! then data-parallel replicas — the ordering that keeps the most
//! communication-intensive axis on the fastest links.

use crate::config::Config;
use colossalai_parallel::mesh::{axis_group, position};
use colossalai_topology::DeviceId;

/// Which axis a group lives on (its index in the `[dp, pp, tp]` grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelAxis {
    Data,
    Pipeline,
    Tensor,
}

/// A device's coordinates in the 3-axis parallel space, plus the member
/// lists of each of its groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelContext {
    rank: DeviceId,
    world: usize,
    /// `[dp, pp, tp]` degrees, indexed by [`ParallelAxis`].
    grid: [usize; 3],
    /// This device's rank along each axis.
    at: [usize; 3],
}

impl ParallelContext {
    /// Builds the context for `rank` in a world of `world` devices under
    /// `config`. Panics if the world size is not `dp * pp * tp`.
    pub fn new(config: &Config, rank: DeviceId, world: usize) -> Self {
        let tp = config.tensor_size();
        let pp = config.pipeline_size();
        let per_replica = tp * pp;
        assert!(
            world.is_multiple_of(per_replica),
            "world size {world} not divisible by tensor*pipeline = {per_replica}"
        );
        let dp = match config.parallel.data {
            Some(d) if d > 0 => {
                assert_eq!(
                    d * per_replica,
                    world,
                    "data degree {d} inconsistent with world {world}"
                );
                d
            }
            _ => world / per_replica,
        };
        assert!(rank < world, "rank {rank} out of world {world}");
        let grid = [dp, pp, tp];
        ParallelContext {
            rank,
            world,
            grid,
            at: position(grid, rank),
        }
    }

    /// Global device id.
    pub fn rank(&self) -> DeviceId {
        self.rank
    }

    /// Total devices.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Degree of an axis.
    pub fn degree(&self, axis: ParallelAxis) -> usize {
        self.grid[axis as usize]
    }

    /// This device's rank along an axis.
    pub fn axis_rank(&self, axis: ParallelAxis) -> usize {
        self.at[axis as usize]
    }

    /// Global device ids of this device's group along an axis, in axis-rank
    /// order (the list every member passes to `DeviceCtx::group`).
    pub fn group_members(&self, axis: ParallelAxis) -> Vec<DeviceId> {
        let devices: Vec<DeviceId> = (0..self.world).collect();
        axis_group(&devices, self.grid, self.at, &[axis as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn cfg(tensor: usize, pipeline: usize) -> Config {
        let json = format!(
            r#"{{ "parallel": {{ "tensor": {{ "size": {tensor}, "mode": "1d" }},
                                 "pipeline": {{ "size": {pipeline} }} }} }}"#
        );
        Config::from_json(&json).unwrap()
    }

    #[test]
    fn factorization_covers_world() {
        let c = cfg(2, 2);
        let world = 8; // dp = 2
        for rank in 0..world {
            let ctx = ParallelContext::new(&c, rank, world);
            assert_eq!(ctx.degree(ParallelAxis::Data), 2);
            // the rank reconstructs from its coordinates
            let r = (ctx.axis_rank(ParallelAxis::Data) * 2 + ctx.axis_rank(ParallelAxis::Pipeline))
                * 2
                + ctx.axis_rank(ParallelAxis::Tensor);
            assert_eq!(r, rank);
        }
    }

    #[test]
    fn tensor_groups_are_adjacent() {
        let c = cfg(4, 1);
        let ctx = ParallelContext::new(&c, 5, 8);
        assert_eq!(ctx.group_members(ParallelAxis::Tensor), vec![4, 5, 6, 7]);
        assert_eq!(ctx.axis_rank(ParallelAxis::Tensor), 1);
    }

    #[test]
    fn groups_are_consistent_across_members() {
        // every member of a group must compute the identical member list
        let c = cfg(2, 2);
        let world = 8;
        for axis in [
            ParallelAxis::Data,
            ParallelAxis::Pipeline,
            ParallelAxis::Tensor,
        ] {
            for rank in 0..world {
                let ctx = ParallelContext::new(&c, rank, world);
                let members = ctx.group_members(axis);
                assert_eq!(members[ctx.axis_rank(axis)], rank, "self position");
                for &m in &members {
                    let other = ParallelContext::new(&c, m, world);
                    assert_eq!(other.group_members(axis), members, "axis {axis:?}");
                }
            }
        }
    }

    #[test]
    fn groups_partition_the_world() {
        let c = cfg(2, 2);
        let world = 8;
        for axis in [
            ParallelAxis::Data,
            ParallelAxis::Pipeline,
            ParallelAxis::Tensor,
        ] {
            let mut seen = vec![0u32; world];
            for rank in 0..world {
                let ctx = ParallelContext::new(&c, rank, world);
                for m in ctx.group_members(axis) {
                    seen[m] += 1;
                }
            }
            // each device appears exactly degree times (once per member)
            let ctx0 = ParallelContext::new(&c, 0, world);
            let deg = ctx0.degree(axis) as u32;
            assert!(seen.iter().all(|&s| s == deg), "{axis:?}: {seen:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn world_must_factor() {
        let c = cfg(3, 1);
        let _ = ParallelContext::new(&c, 0, 8);
    }

    #[test]
    fn explicit_data_degree_checked() {
        let json = r#"{ "parallel": { "tensor": { "size": 2, "mode": "1d" }, "data": 2 } }"#;
        let c = Config::from_json(json).unwrap();
        let ctx = ParallelContext::new(&c, 0, 4);
        assert_eq!(ctx.degree(ParallelAxis::Data), 2);
    }
}
