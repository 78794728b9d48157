package graph

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ctpquery/internal/fault"
)

// storeModel is the naive oracle for Store: every node by its (unique)
// label with its set of types, and the live edges as a multiset of label
// triples. It pins the multigraph semantics: a triple may be present any
// number of times, and one deletion removes every live copy — including
// copies added earlier in the same batch.
type storeModel struct {
	nodes map[string]map[string]bool
	edges map[Triple]int
}

// newStoreModel reads g, whose node labels must be unique.
func newStoreModel(g *Graph) *storeModel {
	m := &storeModel{nodes: map[string]map[string]bool{}, edges: map[Triple]int{}}
	for i := 0; i < g.NumNodes(); i++ {
		n := NodeID(i)
		ts := map[string]bool{}
		for _, t := range g.NodeTypes(n) {
			ts[g.Labels().String(t)] = true
		}
		m.nodes[g.NodeLabel(n)] = ts
	}
	for i := 0; i < g.NumEdges(); i++ {
		if e := EdgeID(i); g.EdgeAlive(e) {
			m.edges[Triple{Source: g.NodeLabel(g.Source(e)), Label: g.EdgeLabel(e), Target: g.NodeLabel(g.Target(e))}]++
		}
	}
	return m
}

func (m *storeModel) clone() *storeModel {
	c := &storeModel{nodes: map[string]map[string]bool{}, edges: map[Triple]int{}}
	for l, ts := range m.nodes {
		cts := map[string]bool{}
		for t := range ts {
			cts[t] = true
		}
		c.nodes[l] = cts
	}
	for t, k := range m.edges {
		c.edges[t] = k
	}
	return c
}

// apply runs b with Batch's documented semantics and reports the counts
// Mutate should; on error the model is left as it was.
func (m *storeModel) apply(b Batch) (MutateResult, error) {
	next := m.clone()
	var res MutateResult
	node := func(l string) {
		if _, ok := next.nodes[l]; !ok {
			next.nodes[l] = map[string]bool{}
			res.NodesAdded++
		}
	}
	typ := func(l, t string) {
		if !next.nodes[l][t] {
			next.nodes[l][t] = true
			res.TypesAdded++
		}
	}
	for _, na := range b.AddNodes {
		node(na.Label)
		for _, t := range na.Types {
			typ(na.Label, t)
		}
	}
	for _, ta := range b.AddTypes {
		if _, ok := next.nodes[ta.Node]; !ok {
			return MutateResult{}, fmt.Errorf("unknown node %q", ta.Node)
		}
		typ(ta.Node, ta.Type)
	}
	for _, t := range b.AddEdges {
		node(t.Source)
		node(t.Target)
		next.edges[t]++
		res.EdgesAdded++
	}
	for _, t := range b.DelEdges {
		res.EdgesDeleted += next.edges[t]
		delete(next.edges, t)
	}
	*m = *next
	return res, nil
}

func (m *storeModel) build() *Graph {
	b := NewBuilder()
	ids := map[string]NodeID{}
	for l, ts := range m.nodes {
		ids[l] = b.AddNode(l)
		for t := range ts {
			b.AddType(ids[l], t)
		}
	}
	for t, k := range m.edges {
		for i := 0; i < k; i++ {
			b.AddEdge(ids[t.Source], t.Label, ids[t.Target])
		}
	}
	return b.Build()
}

func resultOps(r MutateResult) int {
	return r.NodesAdded + r.EdgesAdded + r.EdgesDeleted + r.TypesAdded
}

// checkStoreStats recounts every delta counter of s.Stats() from the
// current view: baseTypes is how many types the store's base carries and
// pending the ops applied since that base was built.
func checkStoreStats(t *testing.T, s *Store, baseTypes, pending int) {
	t.Helper()
	st, v := s.Stats(), s.View()
	want := StoreStats{AddedNodes: v.NumNodes() - st.BaseNodes, PendingOps: pending, TypesAdded: -baseTypes}
	for i := 0; i < v.NumEdges(); i++ {
		switch {
		case !v.EdgeAlive(EdgeID(i)):
			want.DeadEdges++
		case i >= st.BaseEdges:
			want.DeltaEdges++
		}
	}
	for i := 0; i < v.NumNodes(); i++ {
		want.TypesAdded += len(v.NodeTypes(NodeID(i)))
	}
	got := StoreStats{AddedNodes: st.AddedNodes, DeltaEdges: st.DeltaEdges, DeadEdges: st.DeadEdges,
		TypesAdded: st.TypesAdded, PendingOps: st.PendingOps}
	if got != want {
		t.Fatalf("delta counters %+v, recount %+v", got, want)
	}
}

func countTypes(g *Graph) int {
	k := 0
	for i := 0; i < g.NumNodes(); i++ {
		k += len(g.NodeTypes(NodeID(i)))
	}
	return k
}

// modelBase is a line graph over labels with every third edge doubled, so
// the base itself holds duplicate triples.
func modelBase(labels []string) (*Graph, []Triple) {
	b := NewBuilder()
	ids := make([]NodeID, len(labels))
	for i, l := range labels {
		ids[i] = b.AddNode(l)
	}
	var triples []Triple
	for i := 1; i < len(ids); i++ {
		b.AddEdge(ids[i-1], "next", ids[i])
		if i%3 == 0 {
			b.AddEdge(ids[i-1], "next", ids[i])
		}
		triples = append(triples, Triple{Source: labels[i-1], Label: "next", Target: labels[i]})
	}
	return b.Build(), triples
}

// TestStoreMatchesModel is the store's differential oracle: a varied batch
// stream (duplicate triples in base and delta, add-then-delete inside a
// batch, upserts on base nodes, batches failing mid-way), and after every
// batch the view must equal a Builder rebuild of the naive model, be
// internally consistent, report delta counters equal to a recount, leave
// every earlier view's content as recorded, and — for a failed batch —
// stay the identical view.
func TestStoreMatchesModel(t *testing.T) {
	batches := 160
	if testing.Short() {
		batches = 60
	}
	labels := make([]string, 24)
	for i := range labels {
		labels[i] = fmt.Sprintf("base%d", i)
	}
	base, triples := modelBase(labels)
	s := NewStore(base, StoreOptions{CompactThreshold: -1})
	m := newStoreModel(base)
	gen := newBatchGen(11, labels)
	gen.base = triples

	type pin struct {
		v   *Graph
		sig string
	}
	pins := []pin{{s.View(), logicalSig(s.View())}}
	baseTypes, pending, failed := countTypes(base), 0, 0
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			if err := s.CompactNow(); err != nil {
				t.Fatal(err)
			}
			baseTypes, pending = countTypes(s.View()), 0
		}
		b := gen.varied()
		before := s.View()
		want, wantErr := m.apply(b)
		got, err := s.Mutate(b)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("batch %d %+v: store error %v, model error %v", i, b, err, wantErr)
		}
		if err != nil {
			failed++
			if s.View() != before {
				t.Fatalf("batch %d: a failed batch published a new view", i)
			}
		} else {
			got.Epoch, got.Fingerprint = 0, 0
			if got != want {
				t.Fatalf("batch %d %+v: applied %+v, model %+v", i, b, got, want)
			}
			pending += resultOps(got)
		}
		v := s.View()
		if sig, want := logicalSig(v), logicalSig(m.build()); sig != want {
			t.Fatalf("batch %d %+v: view diverged from the model:\n%s\nwant:\n%s", i, b, sig, want)
		}
		checkConsistent(t, v)
		checkStoreStats(t, s, baseTypes, pending)
		if err == nil {
			pins = append(pins, pin{v, logicalSig(v)})
		}
		for j, p := range pins {
			if logicalSig(p.v) != p.sig {
				t.Fatalf("batch %d: pinned view %d changed content", i, j)
			}
		}
	}
	if failed == 0 || failed == batches {
		t.Fatalf("%d of %d batches failed: the stream does not cover both outcomes", failed, batches)
	}
}

// TestStoreCompactionReplay holds a compaction in its rebuild (a Delay at
// the graph.compact probe) while batches land, so the swap must replay
// them onto the new base — deterministically, where
// TestStoreLinearizability reaches the replay only by timing. The
// compaction must leave content, epoch and fingerprint as they were, and
// the delta holding exactly the replayed ops.
func TestStoreCompactionReplay(t *testing.T) {
	defer fault.Reset()
	labels := make([]string, 16)
	for i := range labels {
		labels[i] = fmt.Sprintf("base%d", i)
	}
	base, _ := modelBase(labels)
	s := NewStore(base, StoreOptions{CompactThreshold: -1})
	defer s.Quiesce()
	m := newStoreModel(base)
	gen := newBatchGen(5, labels)
	apply := func() int {
		b := gen.next()
		if _, err := m.apply(b); err != nil {
			t.Fatal(err)
		}
		return resultOps(mustMutate(t, s, b))
	}
	for i := 0; i < 20; i++ {
		apply()
	}
	pinnedTypes := countTypes(s.View()) // what the rebuilt base will carry

	if err := fault.Arm("graph.compact", fault.Fault{Kind: fault.Delay, Delay: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.CompactNow() }()
	for !s.Stats().Compacting {
		runtime.Gosched()
	}
	replayed := 0
	for i := 0; i < 10; i++ {
		replayed += apply()
	}
	if !s.Stats().Compacting {
		t.Fatal("the rebuild finished before the batches landed: nothing to replay")
	}
	epoch, fp := s.View().Epoch(), s.View().Fingerprint()
	if err := <-done; err != nil {
		t.Fatalf("CompactNow: %v", err)
	}

	v := s.View()
	if v.Epoch() != epoch || v.Fingerprint() != fp {
		t.Fatalf("compaction moved epoch/fingerprint: %d/%x -> %d/%x", epoch, fp, v.Epoch(), v.Fingerprint())
	}
	if sig, want := logicalSig(v), logicalSig(m.build()); sig != want {
		t.Fatalf("replayed view diverged from the model:\n%s\nwant:\n%s", sig, want)
	}
	checkConsistent(t, v)
	st := s.Stats()
	if replayed == 0 || st.PendingOps != replayed || st.BaseGen != 1 || st.Compactions != 1 {
		t.Fatalf("after the replay: %+v, want %d pending ops, base gen 1, 1 compaction", st, replayed)
	}
	checkStoreStats(t, s, pinnedTypes, replayed)
}
