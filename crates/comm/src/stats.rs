//! Communication traffic accounting.
//!
//! Every collective records the element-hops the *modeled* (ring-family)
//! algorithm would move. Summed over all ranks, these counts reproduce the
//! closed forms of Table 1, which the `colossalai-parallel` crate's volume
//! tests check against its analytic formulas.

use std::collections::HashMap;

/// Which collective produced the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    AllReduce,
    AllGather,
    ReduceScatter,
    Broadcast,
    Scatter,
    Gather,
    AllToAll,
    Reduce,
    SendRecv,
    Barrier,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::AllReduce => "all_reduce",
            OpKind::AllGather => "all_gather",
            OpKind::ReduceScatter => "reduce_scatter",
            OpKind::Broadcast => "broadcast",
            OpKind::Scatter => "scatter",
            OpKind::Gather => "gather",
            OpKind::AllToAll => "all_to_all",
            OpKind::Reduce => "reduce",
            OpKind::SendRecv => "send_recv",
            OpKind::Barrier => "barrier",
        }
    }
}

/// Aggregate communication statistics for a world or a phase.
///
/// `PartialEq` compares the full breakdown; the parity tests use it to
/// assert closure and task ranks account identically at every pool size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of collective invocations (counted once per group op, not per
    /// rank).
    pub ops: u64,
    /// Total element-hops moved across links by the modeled algorithms.
    pub elements: u64,
    /// Total bytes (elements x wire width).
    pub bytes: u64,
    /// Breakdown per op kind: (ops, elements).
    pub by_op: HashMap<OpKind, (u64, u64)>,
}

impl CommStats {
    /// Records one group operation.
    pub fn record(&mut self, kind: OpKind, elements: u64, bytes: u64) {
        self.ops += 1;
        self.elements += elements;
        self.bytes += bytes;
        let e = self.by_op.entry(kind).or_insert((0, 0));
        e.0 += 1;
        e.1 += elements;
    }

    /// Element-hops attributed to `kind`.
    pub fn elements_of(&self, kind: OpKind) -> u64 {
        self.by_op.get(&kind).map_or(0, |&(_, e)| e)
    }

    /// Op count attributed to `kind`.
    pub fn ops_of(&self, kind: OpKind) -> u64 {
        self.by_op.get(&kind).map_or(0, |&(o, _)| o)
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.ops += other.ops;
        self.elements += other.elements;
        self.bytes += other.bytes;
        for (&k, &(o, e)) in &other.by_op {
            let entry = self.by_op.entry(k).or_insert((0, 0));
            entry.0 += o;
            entry.1 += e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = CommStats::default();
        s.record(OpKind::AllReduce, 100, 400);
        s.record(OpKind::AllReduce, 50, 200);
        s.record(OpKind::Broadcast, 10, 40);
        assert_eq!(s.ops, 3);
        assert_eq!(s.elements, 160);
        assert_eq!(s.bytes, 640);
        assert_eq!(s.elements_of(OpKind::AllReduce), 150);
        assert_eq!(s.ops_of(OpKind::AllReduce), 2);
        assert_eq!(s.elements_of(OpKind::AllToAll), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats::default();
        a.record(OpKind::AllGather, 5, 20);
        let mut b = CommStats::default();
        b.record(OpKind::AllGather, 7, 28);
        b.record(OpKind::SendRecv, 3, 12);
        a.merge(&b);
        assert_eq!(a.elements_of(OpKind::AllGather), 12);
        assert_eq!(a.elements_of(OpKind::SendRecv), 3);
        assert_eq!(a.ops, 3);
    }
}
