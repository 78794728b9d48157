package tree

import (
	"ctpquery/internal/graph"
	"ctpquery/internal/hash64"
)

// 64-bit edge-set signatures: the allocation-free replacement for the
// string keys (EdgeSetKey) the search kernels originally deduplicated on.
//
// A set's signature is the XOR of a strong per-element hash (the splitmix64
// finalizer) folded with a constant basis. XOR makes the signature
// incremental — Grow updates a parent signature in O(1), Merge combines two
// child signatures in O(1) — and order-independent, which matches edge-set
// identity exactly. XOR set hashing can collide, so every consumer backs
// the signature with a collision-checked bucket (see core's SigSet) and
// never trusts the hash alone.

// SetSigBasis is the signature of the empty edge set. Folding it into
// every set signature keeps the empty set distinct from a zero hash.
const SetSigBasis uint64 = 0x8afe63e23465a715

// EdgeSig returns the hash of a single edge ID.
func EdgeSig(e graph.EdgeID) uint64 { return hash64.Mix(uint64(uint32(e)) + 0x9e3779b97f4a7c15) }

// NodeSig returns the hash of a single node ID, domain-separated from
// EdgeSig so a one-node tree never collides with a one-edge tree.
func NodeSig(n graph.NodeID) uint64 { return hash64.Mix(uint64(uint32(n)) | 1<<33) }

// EdgeSetSig returns the signature of an edge set: SetSigBasis XOR the
// per-edge hashes. The slice need not be sorted — XOR is commutative.
func EdgeSetSig(edges []graph.EdgeID) uint64 {
	h := SetSigBasis
	for _, e := range edges {
		h ^= EdgeSig(e)
	}
	return h
}

// MergeSigs combines the signatures of two disjoint edge sets into the
// signature of their union (the basis appears in both inputs, so one copy
// is cancelled).
func MergeSigs(a, b uint64) uint64 { return a ^ b ^ SetSigBasis }

// SigWithRoot folds a root node into an edge-set signature, yielding the
// rooted identity GAM deduplicates on.
func SigWithRoot(sig uint64, root graph.NodeID) uint64 { return hash64.Mix(sig ^ NodeSig(root)) }

// Sig returns the tree's edge-set signature (computed incrementally by
// the constructors; recomputed here only for hand-built trees).
func (t *Tree) Sig() uint64 {
	if t.sig == 0 {
		t.sig = EdgeSetSig(t.Edges)
	}
	return t.sig
}

// RootedSig returns the signature of the (root, edge set) pair.
func (t *Tree) RootedSig() uint64 { return SigWithRoot(t.Sig(), t.Root) }
