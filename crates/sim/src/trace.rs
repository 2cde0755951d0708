//! Address map for trace-driven cache simulation.
//!
//! The `Flex+LRU` / `Flex+BRRIP` baselines route every access through a
//! line-granular cache, so tensors need byte addresses. Real solvers update
//! `X`, `R`, `P` **in place** — iteration `i`'s `R@i` occupies the same
//! buffer as `R@(i−1)` — so the address map aliases versioned names
//! (`R@3` → base tensor `R`) onto one region. This is what gives the cache a
//! fair shot at cross-iteration reuse (and what lets large working sets
//! thrash it, reproducing Fig 12's cache results).

use cello_graph::dag::TensorDag;
use std::collections::BTreeMap;

/// Strips the `@version` suffix: `R@3` → `R`.
pub fn base_name(tensor: &str) -> &str {
    tensor.split('@').next().unwrap_or(tensor)
}

/// Assigns each *base* tensor a contiguous, line-aligned byte range.
#[derive(Clone, Debug, Default)]
pub struct AddressMap {
    ranges: BTreeMap<String, (u64, u64)>, // base name -> (start, bytes)
    next: u64,
}

impl AddressMap {
    /// Builds the map over every tensor (op outputs + externals) of a DAG.
    pub fn build(dag: &TensorDag, word_bytes: u32) -> Self {
        let mut map = Self::default();
        for ext in dag.externals() {
            map.insert(&ext.meta.name, ext.meta.words * word_bytes as u64);
        }
        for (_, node) in dag.nodes() {
            map.insert(&node.output.name, node.output.words * word_bytes as u64);
        }
        map
    }

    /// Registers `tensor` (aliased by base name) with `bytes` footprint.
    /// A version larger than its buffer's region moves the region past
    /// every other one: growing it in place would run into the next.
    pub fn insert(&mut self, tensor: &str, bytes: u64) {
        let base = base_name(tensor);
        if self.ranges.get(base).is_some_and(|range| range.1 >= bytes) {
            return;
        }
        let start = self.next;
        // Line-align region starts so tensors never share a cache line.
        self.next = (start + bytes.max(1)).div_ceil(64) * 64;
        self.ranges.insert(base.to_string(), (start, bytes));
    }

    /// Byte range of a tensor (panics on unknown tensors — the engine always
    /// builds the map from the same DAG it walks).
    pub fn range(&self, tensor: &str) -> (u64, u64) {
        self.ranges[base_name(tensor)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_name_strips_version() {
        assert_eq!(base_name("R@3"), "R");
        assert_eq!(base_name("A"), "A");
        assert_eq!(base_name("rho@10"), "rho");
    }

    #[test]
    fn versions_alias_one_region() {
        let mut m = AddressMap::default();
        m.insert("R@1", 1000);
        m.insert("R@2", 1000);
        m.insert("X@1", 500);
        assert_eq!(m.range("R@1"), m.range("R@2"));
        assert_ne!(m.range("R@1").0, m.range("X@1").0);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut m = AddressMap::default();
        m.insert("A", 100);
        m.insert("B", 200);
        m.insert("C", 300);
        let (a0, ab) = m.range("A");
        let (b0, bb) = m.range("B");
        let (c0, _) = m.range("C");
        assert!(a0 + ab <= b0);
        assert!(b0 + bb <= c0);
    }

    #[test]
    fn growing_a_region_does_not_overlap_the_next() {
        let mut m = AddressMap::default();
        m.insert("R@1", 100);
        m.insert("X", 100);
        m.insert("R@2", 1000);
        m.insert("Y", 100);
        assert_eq!(m.range("R@1"), m.range("R@2"));
        assert_eq!(m.range("R@1").1, 1000);
        let regions = ["R", "X", "Y"].map(|t| m.range(t));
        for (i, &(a, a_bytes)) in regions.iter().enumerate() {
            for &(b, b_bytes) in &regions[i + 1..] {
                assert!(
                    a + a_bytes <= b || b + b_bytes <= a,
                    "{a}+{a_bytes} overlaps {b}+{b_bytes}"
                );
            }
        }
        // A smaller later version keeps the region.
        m.insert("R@3", 10);
        assert_eq!(m.range("R@3"), regions[0]);
    }

    #[test]
    fn build_from_cg_dag_aliases_iterations() {
        use cello_workloads::cg::{build_cg_dag, CgParams};
        let dag = build_cg_dag(&CgParams {
            m: 1000,
            occupancy: 4.0,
            a_payload_words: 9001,
            n: 4,
            nprime: 4,
            iterations: 3,
            a_occupancy: None,
        });
        let m = AddressMap::build(&dag, 4);
        // Physical buffers: A, P, X, R, G, S, D, L, F = 9.
        let regions: std::collections::BTreeSet<(u64, u64)> = dag
            .nodes()
            .map(|(_, n)| m.range(&n.output.name))
            .chain(dag.externals().iter().map(|x| m.range(&x.meta.name)))
            .collect();
        assert_eq!(regions.len(), 9);
        assert_eq!(m.range("S@1"), m.range("S@3"));
    }
}
