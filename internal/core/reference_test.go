package core

import (
	"sort"

	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// referenceResults enumerates all CTP results of at most maxEdges edges by
// brute force: every edge subset that forms a tree, contains exactly one
// node from each seed set, and whose leaves are all seeds (the minimality
// characterization of Observation 1). It is exponential and only usable on
// tiny graphs, but independent of the search algorithms, making it the
// ground truth for completeness cross-checks.
func referenceResults(g *graph.Graph, seeds []SeedSet, maxEdges int) map[string]bool {
	si := buildSeedIndex(seeds)
	out := make(map[string]bool)

	// Single-node results: a node belonging to every seed set.
	for i := 0; i < g.NumNodes(); i++ {
		n := graph.NodeID(i)
		if si.covers(si.mask(n)) {
			out["n"+tree.EdgeSetKey([]graph.EdgeID{graph.EdgeID(n)})] = true
		}
	}

	e := g.NumEdges()
	subset := make([]graph.EdgeID, 0, maxEdges)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k > 0 && validReference(g, si, subset) {
			out[tree.EdgeSetKey(subset)] = true
		}
		if k == maxEdges {
			return
		}
		for i := start; i < e; i++ {
			subset = append(subset, graph.EdgeID(i))
			rec(i+1, k+1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0, 0)
	return out
}

func validReference(g *graph.Graph, si *seedIndex, edges []graph.EdgeID) bool {
	if !tree.IsTree(g, edges) {
		return false
	}
	nodes := tree.NodesOfEdges(g, edges)
	// Exactly one node per (non-universal) seed set.
	var sat bitset.Bits
	counts := map[int]int{}
	for _, n := range nodes {
		m := si.mask(n)
		(&sat).UnionInPlace(m)
		for _, i := range m.Indices() {
			counts[i]++
		}
	}
	if !si.covers(sat) {
		return false
	}
	for _, c := range counts {
		if c > 1 {
			return false
		}
	}
	// Every leaf must be a seed.
	for _, l := range tree.Leaves(g, edges) {
		if !si.isSeed(l) {
			return false
		}
	}
	return true
}

// resultKeys converts a ResultSet to the same key space as
// referenceResults.
func resultKeys(rs *ResultSet) map[string]bool {
	out := make(map[string]bool, len(rs.Results))
	for _, r := range rs.Results {
		if r.Tree.Size() == 0 {
			out["n"+tree.EdgeSetKey([]graph.EdgeID{graph.EdgeID(r.Tree.Root)})] = true
		} else {
			out[r.Tree.EdgeKey()] = true
		}
	}
	return out
}

// sortedKeys renders a key set for diffs in failure messages.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// singletons builds singleton seed sets from node IDs.
func singletons(ns ...graph.NodeID) []SeedSet {
	sets := make([][]graph.NodeID, len(ns))
	for i, n := range ns {
		sets[i] = []graph.NodeID{n}
	}
	return Explicit(sets...)
}
