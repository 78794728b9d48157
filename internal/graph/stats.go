package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a graph's size and connectivity; handy when reporting
// benchmark workloads.
type Stats struct {
	Nodes       int
	Edges       int
	Labels      int
	MaxDegree   int
	AvgDegree   float64
	Components  int
	LargestComp int
}

// ComputeStats walks the graph once and returns its Stats. On a live
// epoch view, Edges counts live edges only.
func ComputeStats(g *Graph) Stats {
	edges := g.NumEdges()
	if g.ov != nil {
		edges -= g.ov.deadBase + g.ov.deadDelta
	}
	s := Stats{
		Nodes:  g.NumNodes(),
		Edges:  edges,
		Labels: g.Labels().Len(),
	}
	totalDeg := 0
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(NodeID(i))
		totalDeg += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Nodes > 0 {
		s.AvgDegree = float64(totalDeg) / float64(s.Nodes)
	}

	// Connected components by iterative undirected traversal.
	visited := make([]bool, g.NumNodes())
	var stack []NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if visited[i] {
			continue
		}
		s.Components++
		size := 0
		stack = append(stack[:0], NodeID(i))
		visited[i] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, e := range g.Incident(n) {
				o := g.Other(e, n)
				if !visited[o] {
					visited[o] = true
					stack = append(stack, o)
				}
			}
		}
		if size > s.LargestComp {
			s.LargestComp = size
		}
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d labels=%d maxDeg=%d avgDeg=%.2f comps=%d largest=%d",
		s.Nodes, s.Edges, s.Labels, s.MaxDegree, s.AvgDegree, s.Components, s.LargestComp)
}

// DegreeHistogram returns "degree: count" lines for degrees up to max,
// aggregating the tail. Used by cmd/expdriver -describe.
func DegreeHistogram(g *Graph, max int) string {
	counts := make(map[int]int)
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(NodeID(i))
		if d > max {
			d = max
		}
		counts[d]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sb strings.Builder
	for _, k := range keys {
		if k == max {
			fmt.Fprintf(&sb, ">=%d: %d\n", k, counts[k])
		} else {
			fmt.Fprintf(&sb, "%d: %d\n", k, counts[k])
		}
	}
	return sb.String()
}
