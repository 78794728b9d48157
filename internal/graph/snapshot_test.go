package graph

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func snapshotFixture(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	a := b.AddNode("alpha")
	dup1 := b.AddNode("dup") // duplicate labels: triple text can't do this
	dup2 := b.AddNode("dup")
	anon := b.AddNodes(1) // empty label
	b.AddType(a, "t1")
	b.AddType(a, "t2")
	e := b.AddEdge(a, "rel", dup1)
	b.AddEdge(dup2, "rel", anon)
	b.AddEdge(anon, "", a) // empty edge label
	b.SetNodeProp(a, "age", "42")
	b.SetEdgeProp(e, "since", "2001")
	return b.Build()
}

// checkSnapshotRoundTrip writes g, reads it back and requires every
// array of the loaded graph to equal Build's, and its fingerprint to be
// Build's.
func checkSnapshotRoundTrip(t testing.TB, g *Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	arrays := func(g *Graph) map[string]any {
		return map[string]any{
			"byID": g.labels.byID, "byString": g.labels.byString, "nodeLabel": g.nodeLabel, "nodeTypes": g.nodeTypes, "edges": g.edges,
			"adjEdges": g.adjEdges, "adjOff": g.adjOff, "outEdges": g.outEdges, "outOff": g.outOff,
			"inEdges": g.inEdges, "inOff": g.inOff,
			"labelNodes": g.labelNodes, "labelNodeOff": g.labelNodeOff,
			"labelEdges": g.labelEdges, "labelEdgeOff": g.labelEdgeOff,
			"typeNodes": g.typeNodes, "typeNodeOff": g.typeNodeOff,
			"nodeProps": g.nodeProps, "edgeProps": g.edgeProps,
		}
	}
	want, have := arrays(g), arrays(got)
	for name := range want {
		if !reflect.DeepEqual(want[name], have[name]) {
			t.Errorf("%s differs after the round trip", name)
		}
	}
	if got.Fingerprint() != g.Fingerprint() {
		t.Errorf("loaded fingerprint %#x, Build's %#x", got.Fingerprint(), g.Fingerprint())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	checkSnapshotRoundTrip(t, snapshotFixture(t))
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("CTPG"),                 // truncated after magic
		[]byte("CTPG\x63\x00\x00\x00"), // wrong version
		[]byte("CTPG\x03\x00\x00\x00\xff\xff\xff"), // truncated counts
	}
	for i, c := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestSnapshotRejectsTruncatedBody(t *testing.T) {
	g := snapshotFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestSnapshotRejectsOldVersions: the format is a cache, so a version-1
// or version-2 file fails in the header with an error that says what to
// do, before any of its body is read.
func TestSnapshotRejectsOldVersions(t *testing.T) {
	valid := craftSnapshot(t, snapshotFixture(t), nil)
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), valid...)
		old[4] = v
		_, err := ReadSnapshot(bytes.NewReader(old))
		var se *SnapshotError
		if !errors.As(err, &se) || se.Section != "header" {
			t.Fatalf("version %d: want a header *SnapshotError, got %v", v, err)
		}
		if want := fmt.Sprintf("unsupported snapshot version %d; re-save it with -save-snapshot", v); !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: error %q does not say %q", v, err, want)
		}
	}
}

// craftSnapshot encodes g's snapshot content after mutate has edited a
// private copy of it. The checksums are computed over the edited bytes,
// so what the reader rejects it rejects by validation.
func craftSnapshot(t *testing.T, g *Graph, mutate func(c *snapshotContent)) []byte {
	t.Helper()
	c := contentOf(g)
	c.nodeLabel = slices.Clone(c.nodeLabel)
	c.edges = slices.Clone(c.edges)
	if mutate != nil {
		mutate(c)
	}
	var buf bytes.Buffer
	if err := c.encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setLabels replaces the dictionary with labels.
func setLabels(c *snapshotContent, labels ...string) {
	c.dictOff = []uint32{0}
	for _, l := range labels {
		c.dictOff = append(c.dictOff, c.dictOff[len(c.dictOff)-1]+uint32(len(l)))
	}
	c.dict = strings.Join(labels, "")
}

func TestSnapshotRejectsOutOfRangeEdge(t *testing.T) {
	g := snapshotFixture(t)
	for name, mutate := range map[string]func(c *snapshotContent){
		"source": func(c *snapshotContent) { c.edges[0].Source = 9 },
		"target": func(c *snapshotContent) { c.edges[1].Target = -1 },
		"label":  func(c *snapshotContent) { c.edges[2].Label = LabelID(len(c.dictOff) - 1) },
	} {
		requireRejected(t, name, craftSnapshot(t, g, mutate), "edges")
	}
}

// TestSnapshotValidation crafts checksum-valid files whose content is
// inconsistent; each must fail in the section that holds the bad value.
func TestSnapshotValidation(t *testing.T) {
	g := snapshotFixture(t) // node 0 has types t1 < t2; nodes 1-3 have none
	labels := func() []string { return slices.Clone(g.labels.byID) }
	cases := []struct {
		name, section string
		mutate        func(c *snapshotContent)
	}{
		{"node label outside dictionary", "nodes", func(c *snapshotContent) { c.nodeLabel[1] = 99 }},
		{"negative node label", "nodes", func(c *snapshotContent) { c.nodeLabel[2] = -1 }},
		{"type outside dictionary", "nodes", func(c *snapshotContent) { c.types[1] = 99 }},
		{"non-monotone type offsets", "nodes", func(c *snapshotContent) { c.typeOff[2] = 1 }},
		{"short type offsets", "nodes", func(c *snapshotContent) { c.typeOff[len(c.typeOff)-1] = 1 }},
		{"unsorted types", "nodes", func(c *snapshotContent) { c.types[0], c.types[1] = c.types[1], c.types[0] }},
		{"duplicate types", "nodes", func(c *snapshotContent) { c.types[1] = c.types[0] }},
		{"non-monotone dictionary offsets", "dictionary", func(c *snapshotContent) { c.dictOff[2], c.dictOff[3] = c.dictOff[3], c.dictOff[2] }},
		{"short dictionary offsets", "dictionary", func(c *snapshotContent) { c.dictOff[len(c.dictOff)-1]-- }},
		{"label 0 not ε", "dictionary", func(c *snapshotContent) { setLabels(c, append([]string{"x"}, labels()[1:]...)...) }},
		{"duplicate dictionary string", "dictionary", func(c *snapshotContent) {
			l := labels()
			l[2] = l[1]
			setLabels(c, l...)
		}},
		{"node property outside nodes", "node-props", func(c *snapshotContent) {
			c.nodeProps = map[string]map[NodeID]string{"age": {9: "42"}}
		}},
		{"edge property outside edges", "edge-props", func(c *snapshotContent) {
			c.edgeProps = map[string]map[EdgeID]string{"since": {9: "2001"}}
		}},
	}
	for _, tc := range cases {
		requireRejected(t, tc.name, craftSnapshot(t, g, tc.mutate), tc.section)
	}
	if _, err := ReadSnapshot(bytes.NewReader(craftSnapshot(t, g, nil))); err != nil {
		t.Fatalf("unedited crafted snapshot rejected: %v", err)
	}
}

func requireRejected(t *testing.T, name string, data []byte, section string) {
	t.Helper()
	g, err := ReadSnapshot(bytes.NewReader(data))
	var se *SnapshotError
	if g != nil || !errors.As(err, &se) {
		t.Fatalf("%s: want a *SnapshotError, got graph %v, error %v", name, g != nil, err)
	}
	if se.Section != section {
		t.Fatalf("%s: failure attributed to the %q section, want %q: %v", name, se.Section, section, err)
	}
}
