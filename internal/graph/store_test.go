package graph

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// logicalSig renders a graph's ID-independent content: sorted lines for
// node labels, types, and live edges. Two views with the same signature
// are logically the same graph, whatever their internal edge numbering.
func logicalSig(g *Graph) string {
	var lines []string
	for i := 0; i < g.NumNodes(); i++ {
		n := NodeID(i)
		lines = append(lines, "n "+g.NodeLabel(n))
		for _, t := range g.NodeTypes(n) {
			lines = append(lines, "t "+g.NodeLabel(n)+" "+g.Labels().String(t))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := EdgeID(i)
		if !g.EdgeAlive(e) {
			continue
		}
		ed := g.Edge(e)
		lines = append(lines, fmt.Sprintf("e %s %s %s",
			g.NodeLabel(ed.Source), g.Labels().String(ed.Label), g.NodeLabel(ed.Target)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkConsistent cross-checks every accessor against every other on g:
// adjacency lists ascending and alive with correct endpoints, Degree
// matching IncidentEdges, label/type indexes agreeing with the per-entity
// accessors in both directions.
func checkConsistent(t *testing.T, g *Graph) {
	t.Helper()
	ascending := func(what string, list []EdgeID) {
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] {
				t.Fatalf("%s not ascending: %v", what, list)
			}
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := NodeID(i)
		out, in, adj := g.OutEdges(n), g.InEdges(n), g.IncidentEdges(n)
		ascending("out", out)
		ascending("in", in)
		ascending("adj", adj)
		if g.Degree(n) != len(adj) {
			t.Fatalf("node %d: Degree %d != len(IncidentEdges) %d", n, g.Degree(n), len(adj))
		}
		for _, e := range out {
			if !g.EdgeAlive(e) {
				t.Fatalf("node %d: dead edge %d in OutEdges", n, e)
			}
			if g.Source(e) != n {
				t.Fatalf("node %d: OutEdges contains edge %d with source %d", n, e, g.Source(e))
			}
		}
		for _, e := range in {
			if !g.EdgeAlive(e) || g.Target(e) != n {
				t.Fatalf("node %d: bad InEdges entry %d", n, e)
			}
		}
		for _, e := range adj {
			if !g.EdgeAlive(e) {
				t.Fatalf("node %d: dead edge %d in IncidentEdges", n, e)
			}
			ed := g.Edge(e)
			if ed.Source != n && ed.Target != n {
				t.Fatalf("node %d: IncidentEdges contains foreign edge %d", n, e)
			}
		}
		if l := g.NodeLabelID(n); l != NoLabel {
			found := false
			for _, m := range g.NodesWithLabel(l) {
				if m == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d missing from NodesWithLabel(%q)", n, g.NodeLabel(n))
			}
		}
		for _, ty := range g.NodeTypes(n) {
			if !g.HasType(n, ty) {
				t.Fatalf("node %d: NodeTypes lists %d but HasType says no", n, ty)
			}
			found := false
			for _, m := range g.NodesWithType(ty) {
				if m == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d missing from NodesWithType(%d)", n, ty)
			}
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := EdgeID(i)
		if !g.EdgeAlive(e) {
			continue
		}
		ed := g.Edge(e)
		contains := func(what string, list []EdgeID) {
			for _, x := range list {
				if x == e {
					return
				}
			}
			t.Fatalf("edge %d missing from %s", e, what)
		}
		contains("OutEdges(src)", g.OutEdges(ed.Source))
		contains("InEdges(dst)", g.InEdges(ed.Target))
		contains("EdgesWithLabel", g.EdgesWithLabel(ed.Label))
	}
	for l := 0; l < g.Labels().Len(); l++ {
		for _, e := range g.EdgesWithLabel(LabelID(l)) {
			if !g.EdgeAlive(e) {
				t.Fatalf("label %d: dead edge %d in EdgesWithLabel", l, e)
			}
			if g.EdgeLabelID(e) != LabelID(l) {
				t.Fatalf("label %d: EdgesWithLabel contains edge %d labeled %d", l, e, g.EdgeLabelID(e))
			}
		}
		for _, n := range g.NodesWithLabel(LabelID(l)) {
			if g.NodeLabelID(n) != LabelID(l) {
				t.Fatalf("label %d: NodesWithLabel contains node %d labeled %d", l, n, g.NodeLabelID(n))
			}
		}
		for _, n := range g.NodesWithType(LabelID(l)) {
			if !g.HasType(n, LabelID(l)) {
				t.Fatalf("type %d: NodesWithType contains node %d without it", l, n)
			}
		}
	}
}

func lineGraph(labels ...string) *Graph {
	b := NewBuilder()
	ids := make([]NodeID, len(labels))
	for i, l := range labels {
		ids[i] = b.AddNode(l)
	}
	for i := 1; i < len(ids); i++ {
		b.AddEdge(ids[i-1], "next", ids[i])
	}
	return b.Build()
}

func mustMutate(t *testing.T, s *Store, b Batch) MutateResult {
	t.Helper()
	res, err := s.Mutate(b)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	return res
}

// TestStoreMutateMatchesBuilder grows a store batch by batch and checks
// after every epoch that the published view is logically identical to the
// same content built from scratch, and internally consistent.
func TestStoreMutateMatchesBuilder(t *testing.T) {
	s := NewStore(lineGraph("a", "b", "c"), StoreOptions{CompactThreshold: -1})

	mustMutate(t, s, Batch{
		AddNodes: []NodeAdd{{Label: "d", Types: []string{"City"}}},
		AddEdges: []Triple{{"c", "next", "d"}, {"d", "back", "a"}},
	})
	mustMutate(t, s, Batch{
		AddTypes: []TypeAdd{{Node: "a", Type: "City"}, {Node: "a", Type: "Capital"}},
		AddEdges: []Triple{{"a", "next", "b"}}, // parallel edge to a base edge
		DelEdges: []Triple{{"b", "next", "c"}},
	})

	v := s.View()
	checkConsistent(t, v)

	want := func() *Graph {
		b := NewBuilder()
		a, bb, c, d := b.AddNode("a"), b.AddNode("b"), b.AddNode("c"), b.AddNode("d")
		b.AddType(d, "City")
		b.AddType(a, "City")
		b.AddType(a, "Capital")
		b.AddEdge(a, "next", bb) // base
		b.AddEdge(c, "next", d)
		b.AddEdge(d, "back", a)
		b.AddEdge(a, "next", bb) // delta parallel edge
		return b.Build()
	}()
	if logicalSig(v) != logicalSig(want) {
		t.Fatalf("view diverged from builder:\nview:\n%s\nwant:\n%s", logicalSig(v), logicalSig(want))
	}
	if v.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", v.Epoch())
	}
}

// TestStoreViewsAreImmutable pins views at every epoch, keeps mutating,
// and checks each pinned view still renders its epoch's content.
func TestStoreViewsAreImmutable(t *testing.T) {
	s := NewStore(lineGraph("a", "b"), StoreOptions{CompactThreshold: -1})
	type pin struct {
		v   *Graph
		sig string
	}
	pins := []pin{{s.View(), logicalSig(s.View())}}
	for i := 0; i < 10; i++ {
		mustMutate(t, s, Batch{
			AddNodes: []NodeAdd{{Label: fmt.Sprintf("x%d", i)}},
			AddEdges: []Triple{{"a", "spoke", fmt.Sprintf("x%d", i)}},
		})
		if i%3 == 1 {
			mustMutate(t, s, Batch{DelEdges: []Triple{{"a", "spoke", fmt.Sprintf("x%d", i-1)}}})
		}
		pins = append(pins, pin{s.View(), logicalSig(s.View())})
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	for i, p := range pins {
		if got := logicalSig(p.v); got != p.sig {
			t.Fatalf("pinned view %d changed content after later mutations/compaction", i)
		}
	}
}

// TestStoreDeleteSemantics: deletes remove every matching live edge, are
// idempotent, and a re-added edge is a fresh live edge.
func TestStoreDeleteSemantics(t *testing.T) {
	b := NewBuilder()
	a, c := b.AddNode("a"), b.AddNode("c")
	b.AddEdge(a, "e", c)
	b.AddEdge(a, "e", c) // duplicate in base
	s := NewStore(b.Build(), StoreOptions{CompactThreshold: -1})

	res := mustMutate(t, s, Batch{AddEdges: []Triple{{"a", "e", "c"}}})
	if res.EdgesAdded != 1 {
		t.Fatalf("EdgesAdded = %d", res.EdgesAdded)
	}
	// All three (two base + one delta) must go.
	res = mustMutate(t, s, Batch{DelEdges: []Triple{{"a", "e", "c"}}})
	if res.EdgesDeleted != 3 {
		t.Fatalf("EdgesDeleted = %d, want 3", res.EdgesDeleted)
	}
	// Idempotent: nothing left to match, and no error.
	res = mustMutate(t, s, Batch{DelEdges: []Triple{{"a", "e", "c"}, {"ghost", "e", "c"}}})
	if res.EdgesDeleted != 0 {
		t.Fatalf("repeat delete removed %d edges", res.EdgesDeleted)
	}
	v := s.View()
	if got := len(v.OutEdges(v.mustNode(t, "a"))); got != 0 {
		t.Fatalf("a still has %d out-edges", got)
	}
	// Add-then-delete within one batch cancels out.
	res = mustMutate(t, s, Batch{
		AddEdges: []Triple{{"a", "e", "c"}},
		DelEdges: []Triple{{"a", "e", "c"}},
	})
	if res.EdgesAdded != 1 || res.EdgesDeleted != 1 {
		t.Fatalf("add+del in batch: %+v", res)
	}
	v = s.View()
	checkConsistent(t, v)
	if got := len(v.OutEdges(v.mustNode(t, "a"))); got != 0 {
		t.Fatalf("a has %d out-edges after cancelling batch", got)
	}
}

func (g *Graph) mustNode(t *testing.T, label string) NodeID {
	t.Helper()
	n, ok := g.NodeByLabel(label)
	if !ok {
		t.Fatalf("node %q not found", label)
	}
	return n
}

// TestStoreUpsertAndErrors: AddNode on an existing unique label merges
// types; ambiguity and unknown references fail the whole batch atomically.
func TestStoreUpsertAndErrors(t *testing.T) {
	b := NewBuilder()
	b.AddNode("dup")
	b.AddNode("dup")
	b.AddNode("solo")
	s := NewStore(b.Build(), StoreOptions{CompactThreshold: -1})
	v0 := s.View()

	for name, bad := range map[string]Batch{
		"ambiguous AddNode":  {AddNodes: []NodeAdd{{Label: "dup"}}},
		"ambiguous AddEdge":  {AddEdges: []Triple{{"dup", "e", "solo"}}},
		"ambiguous DelEdge":  {DelEdges: []Triple{{"dup", "e", "solo"}}},
		"unknown AddType":    {AddTypes: []TypeAdd{{Node: "nobody", Type: "T"}}},
		"partial then error": {AddNodes: []NodeAdd{{Label: "fresh"}}, AddTypes: []TypeAdd{{Node: "nobody", Type: "T"}}},
	} {
		if _, err := s.Mutate(bad); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
	if s.View() != v0 {
		t.Fatal("failed batches published a new view")
	}
	if _, ok := s.View().NodeByLabel("fresh"); ok {
		t.Fatal("aborted batch leaked a node")
	}

	// Upsert: merge one new type into solo, skip the duplicate.
	mustMutate(t, s, Batch{AddNodes: []NodeAdd{{Label: "solo", Types: []string{"T"}}}})
	res := mustMutate(t, s, Batch{AddNodes: []NodeAdd{{Label: "solo", Types: []string{"T", "U"}}}})
	if res.NodesAdded != 0 || res.TypesAdded != 1 {
		t.Fatalf("upsert: %+v, want 0 nodes / 1 type", res)
	}
	v := s.View()
	n := v.mustNode(t, "solo")
	if len(v.NodeTypes(n)) != 2 {
		t.Fatalf("solo has types %v", v.NodeTypes(n))
	}
	checkConsistent(t, v)
}

// TestStoreFingerprint: the fingerprint chain is deterministic across
// stores, changes on every batch, and diverges for different batches.
func TestStoreFingerprint(t *testing.T) {
	mk := func() *Store { return NewStore(lineGraph("a", "b", "c"), StoreOptions{CompactThreshold: -1}) }
	s1, s2 := mk(), mk()
	if s1.View().Fingerprint() != s2.View().Fingerprint() {
		t.Fatal("identical bases disagree on fingerprint")
	}
	batch := Batch{AddEdges: []Triple{{"a", "hop", "c"}}}
	fp0 := s1.View().Fingerprint()
	r1 := mustMutate(t, s1, batch)
	r2 := mustMutate(t, s2, batch)
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatal("same batch produced different fingerprints")
	}
	if r1.Fingerprint == fp0 {
		t.Fatal("fingerprint did not change on mutation")
	}
	s3 := mk()
	r3 := mustMutate(t, s3, Batch{AddEdges: []Triple{{"a", "hop", "b"}}})
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatal("different batches produced the same fingerprint")
	}
}

// TestStoreCompaction: compaction preserves logical content, epoch, and
// fingerprint (so caches survive), squeezes dead edge IDs, and later
// mutations keep working against the new base.
func TestStoreCompaction(t *testing.T) {
	s := NewStore(lineGraph("a", "b", "c", "d"), StoreOptions{CompactThreshold: -1})
	mustMutate(t, s, Batch{
		AddNodes: []NodeAdd{{Label: "e", Types: []string{"T"}}},
		AddEdges: []Triple{{"d", "next", "e"}, {"e", "back", "a"}},
		DelEdges: []Triple{{"a", "next", "b"}},
	})
	before := s.View()
	sig, fp, ep := logicalSig(before), before.Fingerprint(), before.Epoch()
	deadSpan := before.NumEdges()

	if err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	after := s.View()
	if logicalSig(after) != sig {
		t.Fatalf("compaction changed content:\n%s\nvs\n%s", logicalSig(after), sig)
	}
	if after.Fingerprint() != fp || after.Epoch() != ep {
		t.Fatalf("compaction changed fingerprint/epoch: %x/%d -> %x/%d",
			fp, ep, after.Fingerprint(), after.Epoch())
	}
	if after.NumEdges() >= deadSpan {
		t.Fatalf("compaction did not squeeze dead IDs: %d -> %d", deadSpan, after.NumEdges())
	}
	checkConsistent(t, after)

	st := s.Stats()
	if st.Compactions != 1 || st.AddedNodes != 0 || st.DeltaEdges != 0 || st.DeadEdges != 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}

	mustMutate(t, s, Batch{AddEdges: []Triple{{"e", "loop", "e"}}})
	checkConsistent(t, s.View())
	if _, ok := s.View().NodeByLabel("e"); !ok {
		t.Fatal("node e is not uniquely resolvable after compaction and a further batch")
	}
}

// TestStoreAutoCompaction: crossing the threshold triggers a background
// compaction that leaves the store logically intact.
func TestStoreAutoCompaction(t *testing.T) {
	s := NewStore(lineGraph("a", "b"), StoreOptions{CompactThreshold: 8})
	for i := 0; i < 10; i++ {
		mustMutate(t, s, Batch{AddEdges: []Triple{{"a", "e", "b"}}})
	}
	s.Quiesce()
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	v := s.View()
	checkConsistent(t, v)
	n, _ := v.NodeByLabel("a")
	if got := len(v.OutEdges(n)); got != 11 { // 1 base + 10 added
		t.Fatalf("a has %d out-edges, want 11", got)
	}
}

// TestStoreEmptyDeltaViewIsPlainBase: after compaction (or before any
// mutation) the published view carries no overlay, so reads are exactly
// base-CSR reads.
func TestStoreEmptyDeltaViewIsPlainBase(t *testing.T) {
	s := NewStore(lineGraph("a", "b", "c"), StoreOptions{CompactThreshold: -1})
	if s.View().ov != nil {
		t.Fatal("fresh store published an overlay view")
	}
	mustMutate(t, s, Batch{AddEdges: []Triple{{"a", "hop", "c"}}})
	if s.View().ov == nil {
		t.Fatal("mutated store published a bare view")
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if s.View().ov != nil {
		t.Fatal("compacted store still publishes an overlay view")
	}
}

// TestStoreSnapshotRoundTrip: a live view serializes its logical content
// through the binary snapshot and the triples text format.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore(lineGraph("a", "b", "c"), StoreOptions{CompactThreshold: -1})
	// Note the deletion leaves no node isolated: the triples text format
	// only materializes nodes that appear in some triple.
	mustMutate(t, s, Batch{
		AddNodes: []NodeAdd{{Label: "d", Types: []string{"T"}}},
		AddEdges: []Triple{{"c", "next", "d"}},
		DelEdges: []Triple{{"b", "next", "c"}},
	})
	v := s.View()

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, v); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if logicalSig(back) != logicalSig(v) {
		t.Fatalf("snapshot round-trip diverged:\n%s\nvs\n%s", logicalSig(back), logicalSig(v))
	}

	buf.Reset()
	if err := WriteTriples(&buf, v); err != nil {
		t.Fatalf("WriteTriples: %v", err)
	}
	back2, err := LoadTriples(&buf)
	if err != nil {
		t.Fatalf("LoadTriples: %v", err)
	}
	if logicalSig(back2) != logicalSig(v) {
		t.Fatal("triples round-trip diverged")
	}
}

// TestMutationStreamRoundTrip: WriteMutations/ReadMutations preserve
// batches, including quoting.
func TestMutationStreamRoundTrip(t *testing.T) {
	batches := []Batch{
		{AddNodes: []NodeAdd{{Label: "plain"}, {Label: "has space", Types: []string{"T one", "T2"}}}},
		{
			AddTypes: []TypeAdd{{Node: "plain", Type: "City"}},
			AddEdges: []Triple{{"plain", "to", "has space"}, {`qu"ote`, "e", "plain"}},
			DelEdges: []Triple{{"plain", "to", "has space"}},
		},
	}
	var buf bytes.Buffer
	if err := WriteMutations(&buf, batches); err != nil {
		t.Fatalf("WriteMutations: %v", err)
	}
	back, err := ReadMutations(&buf)
	if err != nil {
		t.Fatalf("ReadMutations: %v\n%s", err, buf.String())
	}
	if len(back) != len(batches) {
		t.Fatalf("got %d batches, want %d", len(back), len(batches))
	}
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", batches) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", back, batches)
	}

	// Batches must replay to the same store state either way.
	apply := func(bs []Batch) uint64 {
		s := NewStore(lineGraph("seed"), StoreOptions{CompactThreshold: -1})
		for _, b := range bs {
			if _, err := s.Mutate(b); err != nil {
				t.Fatalf("replay: %v", err)
			}
		}
		return s.View().Fingerprint()
	}
	if apply(batches) != apply(back) {
		t.Fatal("replayed stream diverged from original batches")
	}
}
