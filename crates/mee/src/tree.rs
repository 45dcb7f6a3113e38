//! Bonsai Merkle Trees (Rogers et al., MICRO'07), as used by IceClave.
//!
//! A Bonsai Merkle Tree protects the *encryption counters* rather than
//! the data itself (data lines are covered by per-line MACs that bind
//! data, address and counter). The tree's leaves are MACs of counter
//! blocks; each internal node MACs its eight children; the root lives in
//! a processor register where physical attacks cannot reach it. IceClave
//! keeps **two** trees — one over the major-only counter region and one
//! over the split-counter region (Figure 7) — at a memory cost of about
//! 0.5 MiB + 4 MiB for 4 GiB of DRAM.

use iceclave_cipher::Aes128;

/// Fan-out of the tree: a 64 B node holds eight 8-byte child MACs.
pub const TREE_ARITY: u64 = 8;

/// `log2(TREE_ARITY)`: the ancestor at level `l` is the leaf index
/// shifted right by `TREE_ARITY_LOG2 * l` bits.
pub const TREE_ARITY_LOG2: u32 = TREE_ARITY.trailing_zeros();

const _: () = assert!(
    TREE_ARITY.is_power_of_two(),
    "shift-based ancestry needs a power-of-two arity"
);

/// Shape of a tree: enough levels of arity-8 nodes to cover `leaves`
/// counter blocks.
///
/// # Examples
///
/// ```
/// use iceclave_mee::TreeGeometry;
///
/// let g = TreeGeometry::for_leaves(4096);
/// assert_eq!(g.depth(), 4); // 8^4 = 4096
/// assert_eq!(g.nodes_at_level(1), 512);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct TreeGeometry {
    leaves: u64,
    depth: u32,
}

impl TreeGeometry {
    /// Geometry covering at least `leaves` leaves (minimum one level).
    pub fn for_leaves(leaves: u64) -> Self {
        let leaves = leaves.max(1);
        let mut depth = 0;
        let mut width = 1u64;
        while width < leaves {
            width = width.saturating_mul(TREE_ARITY);
            depth += 1;
        }
        TreeGeometry { leaves, depth }
    }

    /// Number of counter-block leaves covered.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Levels between the leaves and the root (the root itself is level
    /// `depth()` and is stored on-chip).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of nodes at `level` (level 0 = leaves).
    pub fn nodes_at_level(&self, level: u32) -> u64 {
        let mut n = self.leaves;
        for _ in 0..level {
            n = n.div_ceil(TREE_ARITY);
        }
        n.max(1)
    }

    /// Index of the ancestor of `leaf` at `level`: `leaf / 8^level`,
    /// computed as a shift because it runs at every level of every
    /// verify walk and tree-path update.
    #[inline]
    pub fn ancestor(&self, leaf: u64, level: u32) -> u64 {
        leaf >> (TREE_ARITY_LOG2 * level)
    }

    /// Total in-memory size of the tree in bytes (64 B per node above
    /// the leaves, excluding the on-chip root).
    pub fn memory_bytes(&self) -> u64 {
        (1..=self.depth)
            .map(|lvl| self.nodes_at_level(lvl) * 64)
            .sum()
    }
}

/// A functional Bonsai Merkle Tree over 8-byte leaf MACs.
///
/// Internal nodes are stored in plain (attackable) memory — the
/// [`MerkleTree::tamper_node`] test hook models a physical write to
/// DRAM — while the root stays private. Verification recomputes the
/// path from the claimed leaf MAC through stored siblings and compares
/// against the root register, so any tamper or rollback below the root
/// is caught.
#[derive(Debug)]
pub struct MerkleTree {
    geometry: TreeGeometry,
    /// `levels[l]` holds the node MACs of level `l+1` (level 0 leaf MACs
    /// are supplied by the counter store, not duplicated here).
    levels: Vec<Vec<[u8; 8]>>,
    leaf_macs: Vec<[u8; 8]>,
    root: [u8; 8],
    mac_key: Aes128,
}

/// Computes an 8-byte MAC of a 64-byte block with AES in
/// Matyas–Meyer–Oseas mode, truncated. `domain` separates leaf/node and
/// position so identical payloads at different places MAC differently.
pub(crate) fn mac64(key: &Aes128, domain: u64, block: &[u8; 64]) -> [u8; 8] {
    let mut h = [0u8; 16];
    h[..8].copy_from_slice(&domain.to_be_bytes());
    for chunk in block.chunks(16) {
        let mut x = [0u8; 16];
        for (i, b) in chunk.iter().enumerate() {
            x[i] = h[i] ^ b;
        }
        let e = key.encrypt_block(&x);
        for i in 0..16 {
            h[i] = e[i] ^ chunk[i];
        }
    }
    let mut out = [0u8; 8];
    out.copy_from_slice(&h[..8]);
    out
}

impl MerkleTree {
    /// Builds a tree over `leaves` all-zero leaf MACs.
    pub fn new(leaves: u64, mac_key: Aes128) -> Self {
        let geometry = TreeGeometry::for_leaves(leaves);
        let leaf_macs = vec![[0u8; 8]; geometry.leaves() as usize];
        let mut tree = MerkleTree {
            geometry,
            levels: Vec::new(),
            leaf_macs,
            root: [0u8; 8],
            mac_key,
        };
        tree.rebuild();
        tree
    }

    fn node_payload(children: &[[u8; 8]]) -> [u8; 64] {
        let mut block = [0u8; 64];
        for (i, c) in children.iter().enumerate() {
            block[i * 8..(i + 1) * 8].copy_from_slice(c);
        }
        block
    }

    fn hash_children(&self, level: u32, index: u64, children: &[[u8; 8]]) -> [u8; 8] {
        let domain = (u64::from(level) << 48) | index;
        mac64(&self.mac_key, domain, &Self::node_payload(children))
    }

    fn rebuild(&mut self) {
        self.levels.clear();
        let mut current: Vec<[u8; 8]> = self.leaf_macs.clone();
        for level in 1..=self.geometry.depth() {
            let parents = self.geometry.nodes_at_level(level);
            let mut next = Vec::with_capacity(parents as usize);
            for p in 0..parents {
                let start = (p * TREE_ARITY) as usize;
                let end = (start + TREE_ARITY as usize).min(current.len());
                let mut children = [[0u8; 8]; 8];
                for (i, c) in current[start..end].iter().enumerate() {
                    children[i] = *c;
                }
                next.push(self.hash_children(level, p, &children));
            }
            self.levels.push(next.clone());
            current = next;
        }
        self.root = self.hash_children(self.geometry.depth() + 1, 0, &[current[0]]);
    }

    /// The geometry of this tree.
    pub fn geometry(&self) -> TreeGeometry {
        self.geometry
    }

    /// The root MAC (conceptually an on-chip register).
    pub fn root(&self) -> [u8; 8] {
        self.root
    }

    /// Updates the MAC of `leaf` and recomputes its path to the root.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn update_leaf(&mut self, leaf: u64, mac: [u8; 8]) {
        assert!(leaf < self.geometry.leaves(), "leaf out of range");
        self.leaf_macs[leaf as usize] = mac;
        // Recompute ancestors bottom-up.
        for level in 1..=self.geometry.depth() {
            let parent = self.geometry.ancestor(leaf, level);
            let children = self.children_of(level, parent);
            let h = self.hash_children(level, parent, &children);
            self.levels[(level - 1) as usize][parent as usize] = h;
        }
        let top = self
            .levels
            .last()
            .map(|l| l[0])
            .unwrap_or(self.leaf_macs[0]);
        self.root = self.hash_children(self.geometry.depth() + 1, 0, &[top]);
    }

    /// Verifies that `mac` is the authentic current MAC of `leaf` by
    /// recomputing the path through the (attackable) stored nodes and
    /// comparing with the private root.
    pub fn verify_leaf(&self, leaf: u64, mac: [u8; 8]) -> bool {
        if leaf >= self.geometry.leaves() {
            return false;
        }
        let mut carried = mac;
        for level in 1..=self.geometry.depth() {
            let parent = self.geometry.ancestor(leaf, level);
            let mut children = self.children_of(level, parent);
            // Replace the claimed child along the path with what we have
            // verified so far.
            let child_pos = (self.geometry.ancestor(leaf, level - 1) % TREE_ARITY) as usize;
            children[child_pos] = carried;
            carried = self.hash_children(level, parent, &children);
        }
        self.hash_children(self.geometry.depth() + 1, 0, &[carried]) == self.root
    }

    /// Test hook modelling a physical attack: overwrites a stored node
    /// (level >= 1) or a stored leaf MAC (level 0) without updating the
    /// root.
    pub fn tamper_node(&mut self, level: u32, index: u64, value: [u8; 8]) {
        if level == 0 {
            self.leaf_macs[index as usize] = value;
        } else {
            self.levels[(level - 1) as usize][index as usize] = value;
        }
    }

    /// The stored MAC of `leaf` (what untrusted memory currently
    /// claims).
    pub fn stored_leaf(&self, leaf: u64) -> [u8; 8] {
        self.leaf_macs[leaf as usize]
    }

    fn children_of(&self, level: u32, parent: u64) -> [[u8; 8]; 8] {
        let source: &[[u8; 8]] = if level == 1 {
            &self.leaf_macs
        } else {
            &self.levels[(level - 2) as usize]
        };
        let start = (parent * TREE_ARITY) as usize;
        let mut children = [[0u8; 8]; 8];
        for i in 0..8 {
            if start + i < source.len() {
                children[i] = source[start + i];
            }
        }
        children
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn key() -> Aes128 {
        Aes128::new(&[0x11; 16])
    }

    #[test]
    fn geometry_depths() {
        assert_eq!(TreeGeometry::for_leaves(1).depth(), 0);
        assert_eq!(TreeGeometry::for_leaves(8).depth(), 1);
        assert_eq!(TreeGeometry::for_leaves(9).depth(), 2);
        assert_eq!(TreeGeometry::for_leaves(64).depth(), 2);
        assert_eq!(TreeGeometry::for_leaves(4096).depth(), 4);
    }

    #[test]
    fn geometry_memory_cost_matches_paper_scale() {
        // 4 GiB of DRAM = 1 Mi pages of split counters (1 block each).
        let split = TreeGeometry::for_leaves(1 << 20);
        let mib = split.memory_bytes() as f64 / (1024.0 * 1024.0);
        // The paper quotes ~4 MiB for the writable tree of Figure 7b
        // plus ~0.5 MiB for the read-only tree.
        assert!((4.0..12.0).contains(&mib), "split tree {mib} MiB");
        let major = TreeGeometry::for_leaves((1 << 20) / 8);
        let mib = major.memory_bytes() as f64 / (1024.0 * 1024.0);
        assert!((0.5..2.0).contains(&mib), "major tree {mib} MiB");
    }

    /// The shift form of `ancestor` equals the division it replaces,
    /// for every level of several geometries, at both ends of the leaf
    /// range and at seeded random leaves.
    #[test]
    fn ancestor_shift_matches_division() {
        let mut rng = iceclave_sim::SimRng::new(0xA9C3_5707);
        for leaves in [
            1u64,
            7,
            8,
            9,
            100,
            4096,
            4097,
            1 << 20,
            (1 << 20) / 8,
            1 << 63,
        ] {
            let g = TreeGeometry::for_leaves(leaves);
            let mut probes = vec![0, g.leaves() - 1];
            probes.extend((0..64).map(|_| rng.gen_u64() % g.leaves()));
            for leaf in probes {
                for level in 0..=g.depth() {
                    assert_eq!(
                        g.ancestor(leaf, level),
                        leaf / TREE_ARITY.pow(level),
                        "leaves {leaves} leaf {leaf} level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_then_verify() {
        let mut t = MerkleTree::new(100, key());
        t.update_leaf(42, [7; 8]);
        assert!(t.verify_leaf(42, [7; 8]));
        assert!(!t.verify_leaf(42, [8; 8]));
        assert!(!t.verify_leaf(41, [7; 8]));
    }

    #[test]
    fn root_changes_with_updates() {
        let mut t = MerkleTree::new(64, key());
        let r0 = t.root();
        t.update_leaf(0, [1; 8]);
        let r1 = t.root();
        assert_ne!(r0, r1);
        t.update_leaf(0, [2; 8]);
        assert_ne!(r1, t.root());
    }

    #[test]
    fn tampered_internal_node_is_detected() {
        let mut t = MerkleTree::new(512, key());
        t.update_leaf(100, [9; 8]);
        assert!(t.verify_leaf(100, [9; 8]));
        // Physical attack: overwrite the level-1 node covering leaves
        // 96..104. Verification of any leaf under a *different* level-1
        // parent but the same level-2 ancestor reads the tampered node
        // as a sibling and must fail (path nodes themselves are
        // recomputed, so only sibling reads expose the tamper).
        t.tamper_node(1, 100 / 8, [0xAA; 8]);
        assert!(!t.verify_leaf(104, t.stored_leaf(104)));
        // Leaf 100's own path recomputes the tampered node, so its own
        // verification still passes — the attack gained nothing.
        assert!(t.verify_leaf(100, [9; 8]));
    }

    #[test]
    fn replayed_leaf_is_detected() {
        let mut t = MerkleTree::new(64, key());
        t.update_leaf(5, [1; 8]);
        let old = t.stored_leaf(5);
        t.update_leaf(5, [2; 8]);
        // Roll back the stored leaf MAC to its old value: root no longer
        // matches.
        assert!(!t.verify_leaf(5, old));
        assert!(t.verify_leaf(5, [2; 8]));
    }

    #[test]
    fn out_of_range_leaf_fails_verification() {
        let t = MerkleTree::new(8, key());
        assert!(!t.verify_leaf(8, [0; 8]));
    }

    #[test]
    fn mac64_is_position_sensitive() {
        let k = key();
        let block = [5u8; 64];
        assert_ne!(mac64(&k, 1, &block), mac64(&k, 2, &block));
        let mut other = block;
        other[63] ^= 1;
        assert_ne!(mac64(&k, 1, &block), mac64(&k, 1, &other));
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = MerkleTree::new(1, key());
        t.update_leaf(0, [3; 8]);
        assert!(t.verify_leaf(0, [3; 8]));
        assert!(!t.verify_leaf(0, [4; 8]));
    }
}
