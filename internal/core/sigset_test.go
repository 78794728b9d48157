package core

import (
	"math/rand"
	"sort"
	"testing"

	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// randomEdgeSet returns a sorted, duplicate-free edge set.
func randomEdgeSet(rng *rand.Rand, maxLen, idRange int) []graph.EdgeID {
	n := rng.Intn(maxLen + 1)
	seen := map[graph.EdgeID]bool{}
	var out []graph.EdgeID
	for len(out) < n {
		e := graph.EdgeID(rng.Intn(idRange))
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The signature set must behave exactly like a map keyed on the full
// (root, edge set) identity, whatever the hash does.
func TestTreeSetMatchesNaiveMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := new(SigSet)
	naive := map[string]bool{}
	key := func(root graph.NodeID, edges []graph.EdgeID) string {
		return string(rune(root+2)) + tree.EdgeSetKey(edges)
	}
	for i := 0; i < 5000; i++ {
		edges := randomEdgeSet(rng, 6, 40) // small ranges force re-draws
		root := unrootedRef
		if rng.Intn(2) == 0 {
			root = graph.NodeID(rng.Intn(10))
		}
		sig := tree.SigWithRoot(tree.EdgeSetSig(edges), root)
		k := key(root, edges)
		if got, want := s.Has(sig, root, edges), naive[k]; got != want {
			t.Fatalf("has(%v,%v) = %v, want %v", root, edges, got, want)
		}
		if got, want := s.Add(sig, root, edges), !naive[k]; got != want {
			t.Fatalf("add(%v,%v) = %v, want %v", root, edges, got, want)
		}
		naive[k] = true
		if !s.Has(sig, root, edges) {
			t.Fatalf("has after add = false for (%v,%v)", root, edges)
		}
	}
}

// Forced collisions (same sig, different identities) must still be told
// apart by the collision check.
func TestTreeSetCollisions(t *testing.T) {
	s := new(SigSet)
	const sig = 12345
	a := []graph.EdgeID{1, 2, 3}
	b := []graph.EdgeID{4, 5}
	c := []graph.EdgeID(nil)
	if !s.Add(sig, unrootedRef, a) || !s.Add(sig, unrootedRef, b) || !s.Add(sig, 7, c) {
		t.Fatal("first adds under one sig should all succeed")
	}
	if s.Add(sig, unrootedRef, a) || s.Add(sig, unrootedRef, b) || s.Add(sig, 7, c) {
		t.Fatal("re-adds must report duplicates")
	}
	if !s.Has(sig, unrootedRef, a) || !s.Has(sig, unrootedRef, b) || !s.Has(sig, 7, c) {
		t.Fatal("all three identities must be present")
	}
	if s.Has(sig, unrootedRef, []graph.EdgeID{1, 2}) || s.Has(sig, 8, c) {
		t.Fatal("absent identities must stay absent")
	}
}

// Incremental signatures (Grow XOR, Merge combine) must agree with the
// from-scratch EdgeSetSig of the same set.
func TestIncrementalSigsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		edges := randomEdgeSet(rng, 12, 1000)
		want := tree.EdgeSetSig(edges)
		// Grow path: fold edges one by one.
		got := tree.SetSigBasis
		for _, e := range edges {
			got ^= tree.EdgeSig(e)
		}
		if got != want {
			t.Fatalf("incremental grow sig %x != %x for %v", got, want, edges)
		}
		// Merge path: split into two disjoint halves.
		cut := rng.Intn(len(edges) + 1)
		a, b := edges[:cut], edges[cut:]
		if m := tree.MergeSigs(tree.EdgeSetSig(a), tree.EdgeSetSig(b)); m != want {
			t.Fatalf("merge sig %x != %x for %v|%v", m, want, a, b)
		}
	}
}

// BenchmarkSignatureDedup measures the dedup probe the kernels run per
// candidate tree: hash an edge set incrementally, test membership, insert
// when new — against a pre-populated history, the steady state of a
// search. The signature path must not allocate per probe.
func BenchmarkSignatureDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const hist = 4096
	sets := make([][]graph.EdgeID, hist)
	s := new(SigSet)
	for i := range sets {
		sets[i] = randomEdgeSet(rng, 10, 1<<20)
		s.Add(tree.EdgeSetSig(sets[i]), unrootedRef, sets[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%hist]
		sig := tree.EdgeSetSig(set)
		if !s.Has(sig, unrootedRef, set) {
			b.Fatal("seeded set missing")
		}
	}
}

// BenchmarkSignatureDedupVsStringKeys quantifies what the hashed history
// replaced: the same probe through string keys.
func BenchmarkSignatureDedupVsStringKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const hist = 4096
	sets := make([][]graph.EdgeID, hist)
	m := make(map[string]bool, hist)
	for i := range sets {
		sets[i] = randomEdgeSet(rng, 10, 1<<20)
		m[tree.EdgeSetKey(sets[i])] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m[tree.EdgeSetKey(sets[i%hist])] {
			b.Fatal("seeded set missing")
		}
	}
}
