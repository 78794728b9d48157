package graph

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshot asserts ReadSnapshot's arbitrary-input contract: any byte
// string either decodes into a graph that round-trips through
// WriteSnapshot, or fails with a structured *SnapshotError — it never
// panics and never half-loads. The committed corpus under
// testdata/fuzz/FuzzSnapshot seeds a valid snapshot plus truncated,
// bit-flipped, and old- or unknown-version variants.
func FuzzSnapshot(f *testing.F) {
	b := NewBuilder()
	n0 := b.AddNode("person")
	n1 := b.AddNode("city")
	n2 := b.AddNode("")
	b.AddType(n0, "entity")
	e0 := b.AddEdge(n0, "lives_in", n1)
	b.AddEdge(n2, "near", n1)
	b.SetNodeProp(n0, "name", "ada")
	b.SetEdgeProp(e0, "since", "1840")
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	oldVersion := append([]byte(nil), valid...)
	oldVersion[4] = 2
	f.Add(oldVersion)
	f.Add([]byte("CTPG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatal("error with non-nil graph")
			}
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("unstructured snapshot error: %v", err)
			}
			return
		}
		// Accepted input must re-encode and decode to the same graph.
		var out bytes.Buffer
		if err := WriteSnapshot(&out, g); err != nil {
			t.Fatalf("decoded graph does not re-encode: %v", err)
		}
		g2, err := ReadSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatal("round trip changed the graph fingerprint")
		}
	})
}
