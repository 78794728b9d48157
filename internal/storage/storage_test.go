package storage

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable("x", "y")
	tb.AddRow(1, 2)
	tb.AddRow(3, 4)
	if tb.NumRows() != 2 || tb.Column("y") != 1 || tb.Column("z") != -1 {
		t.Fatalf("table basics broken: %s", tb)
	}
	if !tb.HasColumn("x") || tb.HasColumn("q") {
		t.Fatal("HasColumn wrong")
	}
	if got := tb.Row(1)[1]; got != 4 {
		t.Fatalf("Row = %d", got)
	}
	if !strings.Contains(tb.String(), "3\t4") {
		t.Fatalf("String = %q", tb.String())
	}
}

func TestTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate columns should panic")
		}
	}()
	NewTable("a", "a")
}

func TestAddRowArityPanics(t *testing.T) {
	tb := NewTable("a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity should panic")
		}
	}()
	tb.AddRow(1)
}

func TestProject(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow(1, 2, 3)
	tb.AddRow(4, 5, 6)
	p, err := tb.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRows() != 2 || p.Row(0)[0] != 3 || p.Row(0)[1] != 1 {
		t.Fatalf("projection wrong: %s", p)
	}
	if _, err := tb.Project("nope"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestDistinct(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2)
	tb.AddRow(1, 2)
	tb.AddRow(2, 1)
	d := tb.Distinct()
	if d.NumRows() != 2 {
		t.Fatalf("distinct = %d rows", d.NumRows())
	}
	if d.Row(0)[0] != 1 || d.Row(1)[0] != 2 {
		t.Fatal("distinct must preserve first-occurrence order")
	}
}

func TestSelect(t *testing.T) {
	tb := NewTable("a")
	for i := int32(0); i < 10; i++ {
		tb.AddRow(i)
	}
	s := tb.Select(func(row []int32) bool { return row[0]%2 == 0 })
	if s.NumRows() != 5 {
		t.Fatalf("select = %d rows", s.NumRows())
	}
}

func TestColumnValues(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(3, 0)
	tb.AddRow(1, 0)
	tb.AddRow(3, 1)
	vals, err := tb.ColumnValues("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("values = %v", vals)
	}
	if _, err := tb.ColumnValues("zz"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestNaturalJoinShared(t *testing.T) {
	a := NewTable("x", "y")
	a.AddRow(1, 10)
	a.AddRow(2, 20)
	a.AddRow(3, 30)
	b := NewTable("y", "z")
	b.AddRow(10, 100)
	b.AddRow(10, 101)
	b.AddRow(30, 300)
	j := NaturalJoin(a, b)
	if got := j.Cols(); len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Fatalf("join cols = %v", got)
	}
	if j.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3\n%s", j.NumRows(), j)
	}
	// (1,10) joins twice, (3,30) once, (2,20) never.
	count1 := 0
	for i := 0; i < j.NumRows(); i++ {
		r := j.Row(i)
		if r[0] == 1 {
			count1++
		}
		if r[0] == 2 {
			t.Fatal("dangling tuple joined")
		}
	}
	if count1 != 2 {
		t.Fatalf("x=1 joined %d times, want 2", count1)
	}
}

func TestNaturalJoinMultiColumn(t *testing.T) {
	a := NewTable("x", "y")
	a.AddRow(1, 2)
	a.AddRow(1, 3)
	b := NewTable("x", "y", "z")
	b.AddRow(1, 2, 9)
	b.AddRow(1, 9, 9)
	j := NaturalJoin(a, b)
	if j.NumRows() != 1 || j.Row(0)[2] != 9 {
		t.Fatalf("multi-column join wrong:\n%s", j)
	}
}

func TestNaturalJoinCross(t *testing.T) {
	a := NewTable("x")
	a.AddRow(1)
	a.AddRow(2)
	b := NewTable("y")
	b.AddRow(7)
	b.AddRow(8)
	j := NaturalJoin(a, b)
	if j.NumRows() != 4 {
		t.Fatalf("cross product = %d rows", j.NumRows())
	}
}

// NaturalJoinTick reports every output row exactly once, for hash joins
// and cross products alike, and a hook error abandons the join.
func TestNaturalJoinTick(t *testing.T) {
	a, shared, disjoint := NewTable("k", "x"), NewTable("k", "y"), NewTable("z")
	for i := int32(0); i < 300; i++ {
		a.AddRow(i%10, i)
		shared.AddRow(i%10, -i)
		disjoint.AddRow(i)
	}
	for name, b := range map[string]*Table{"hash join": shared, "cross product": disjoint} {
		reported, calls := 0, 0
		out, err := NaturalJoinTick(a, b, func(rows int) error {
			reported += rows
			calls++
			return nil
		})
		if err != nil || out.NumRows() != NaturalJoin(a, b).NumRows() || reported != out.NumRows() {
			t.Fatalf("%s: %d rows, %d reported, err %v; want %d", name, out.NumRows(), reported, err, NaturalJoin(a, b).NumRows())
		}
		if calls < 2 {
			t.Fatalf("%s: %d rows reported in %d call(s), want progress along the way", name, reported, calls)
		}
		stop := errors.New("stop")
		calls = 0
		if _, err := NaturalJoinTick(a, b, func(int) error { calls++; return stop }); err != stop || calls != 1 {
			t.Fatalf("%s: err %v after %d call(s), want the hook's error after 1", name, err, calls)
		}
	}
}

func TestNaturalJoinBuildSideChoice(t *testing.T) {
	// Join result must be identical regardless of which side is smaller.
	small := NewTable("k", "a")
	small.AddRow(1, 5)
	large := NewTable("k", "b")
	for i := int32(0); i < 20; i++ {
		large.AddRow(i%3, i)
	}
	j1 := NaturalJoin(small, large)
	j2 := NaturalJoin(large, small)
	if j1.NumRows() != j2.NumRows() {
		t.Fatalf("asymmetric join: %d vs %d", j1.NumRows(), j2.NumRows())
	}
	// Column order differs (a's columns first), but the k=1 matches agree.
	if j1.NumRows() == 0 {
		t.Fatal("no matches")
	}
}

func TestTripleStoreScan(t *testing.T) {
	g := gen.Sample()
	s := NewTripleStore(g)
	if s.Graph() != g {
		t.Fatal("Graph accessor")
	}
	all := s.Scan()
	if all.NumRows() != g.NumEdges() {
		t.Fatalf("scan = %d rows", all.NumRows())
	}
	cit := s.ScanLabel("citizenOf")
	if cit.NumRows() != 5 {
		t.Fatalf("citizenOf scan = %d rows", cit.NumRows())
	}
	if s.ScanLabel("absent").NumRows() != 0 {
		t.Fatal("absent label scan should be empty")
	}
}

func TestRecursivePathsLine(t *testing.T) {
	w := gen.Line(2, 3, gen.Forward) // A -> x -> y -> z -> B
	s := NewTripleStore(w.Graph)
	paths, timedOut := s.RecursivePaths(w.Seeds[0], w.Seeds[1], RecursiveOptions{MaxDepth: 10})
	if timedOut {
		t.Fatal("unexpected timeout")
	}
	if len(paths) != 1 || len(paths[0].Edges) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	if len(s.Labels(paths[0])) != 4 {
		t.Fatal("labels wrong")
	}
	// Reverse direction: no directed path from B to A.
	back, _ := s.RecursivePaths(w.Seeds[1], w.Seeds[0], RecursiveOptions{MaxDepth: 10})
	if len(back) != 0 {
		t.Fatalf("directed search found reverse path: %v", back)
	}
}

func TestRecursivePathsChainCountsAllCombinations(t *testing.T) {
	w := gen.Chain(5) // 2^5 directed paths end to end
	s := NewTripleStore(w.Graph)
	paths, _ := s.RecursivePaths(w.Seeds[0], w.Seeds[1], RecursiveOptions{MaxDepth: 10})
	if len(paths) != 32 {
		t.Fatalf("paths = %d, want 32", len(paths))
	}
}

func TestRecursivePathsDepthBound(t *testing.T) {
	w := gen.Line(2, 5, gen.Forward) // 6-edge path
	s := NewTripleStore(w.Graph)
	paths, _ := s.RecursivePaths(w.Seeds[0], w.Seeds[1], RecursiveOptions{MaxDepth: 3})
	if len(paths) != 0 {
		t.Fatal("depth bound ignored")
	}
}

func TestRecursivePathsLabelFilterAndLimit(t *testing.T) {
	w := gen.Chain(4)
	s := NewTripleStore(w.Graph)
	onlyA, _ := s.RecursivePaths(w.Seeds[0], w.Seeds[1], RecursiveOptions{Labels: []string{"a"}})
	if len(onlyA) != 1 {
		t.Fatalf("label-filtered paths = %d, want 1", len(onlyA))
	}
	limited, _ := s.RecursivePaths(w.Seeds[0], w.Seeds[1], RecursiveOptions{Limit: 3})
	if len(limited) != 3 {
		t.Fatalf("limited paths = %d, want 3", len(limited))
	}
}

func TestRecursivePathsSelfSource(t *testing.T) {
	g := gen.Sample()
	s := NewTripleStore(g)
	alice, _ := g.NodeByLabel("Alice")
	paths, _ := s.RecursivePaths([]graph.NodeID{alice}, []graph.NodeID{alice}, RecursiveOptions{})
	if len(paths) != 1 || len(paths[0].Edges) != 0 {
		t.Fatalf("self path = %v", paths)
	}
}

func TestRecursivePathsTimeout(t *testing.T) {
	w := gen.Chain(20)
	s := NewTripleStore(w.Graph)
	_, timedOut := s.RecursivePaths(w.Seeds[0], w.Seeds[1], RecursiveOptions{
		MaxDepth: 25, Timeout: time.Nanosecond})
	if !timedOut {
		t.Fatal("timeout not reported")
	}
}

func TestRecursivePathsCycleAvoidance(t *testing.T) {
	// Triangle: A -> B -> C -> A; from A to C there is exactly one simple
	// directed path (A,B,C) plus the direct... A->B->C only; C reached
	// also via nothing else. Cycles must not loop forever.
	b := graph.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	c := b.AddNode("C")
	b.AddEdge(a, "t", bb)
	b.AddEdge(bb, "t", c)
	b.AddEdge(c, "t", a)
	s := NewTripleStore(b.Build())
	paths, _ := s.RecursivePaths([]graph.NodeID{a}, []graph.NodeID{c}, RecursiveOptions{MaxDepth: 10})
	if len(paths) != 1 || len(paths[0].Edges) != 2 {
		t.Fatalf("paths = %v", paths)
	}
}
