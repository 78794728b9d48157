// Package storage provides the relational substrate the paper delegates to
// PostgreSQL (Section 5.1): the graph(id, source, edgeLabel, target) triple
// table, binding tables with projection / selection / natural hash joins
// (used by the EQL evaluation strategy's steps A and C, Section 3), and an
// iterative WITH RECURSIVE-style path evaluator backing the Postgres
// baseline of Section 5.5.
package storage

import (
	"fmt"
	"slices"
	"strings"

	"ctpquery/internal/hash64"
)

// Table is a column-named relation of int32 tuples. Values are graph node
// IDs, edge IDs, or CTP result handles, depending on the column. The zero
// Table is empty and unusable; create tables with NewTable.
type Table struct {
	cols []string
	idx  map[string]int
	rows [][]int32
}

// NewTable creates an empty table with the given column names. Column
// names must be distinct.
func NewTable(cols ...string) *Table {
	t := &Table{cols: append([]string(nil), cols...), idx: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.idx[c]; dup {
			panic(fmt.Sprintf("storage: duplicate column %q", c))
		}
		t.idx[c] = i
	}
	return t
}

// Cols returns the column names. Callers must not modify the slice.
func (t *Table) Cols() []string { return t.cols }

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns the i-th tuple (shared storage).
func (t *Table) Row(i int) []int32 { return t.rows[i] }

// Column returns the index of the named column, or -1.
func (t *Table) Column(name string) int {
	if i, ok := t.idx[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool { return t.Column(name) >= 0 }

// AddRow appends a tuple; the value count must match the column count.
func (t *Table) AddRow(vals ...int32) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("storage: AddRow with %d values into %d columns", len(vals), len(t.cols)))
	}
	row := make([]int32, len(vals))
	copy(row, vals)
	t.rows = append(t.rows, row)
}

// AddRowOwned appends a tuple without copying it: the table takes
// ownership of the slice, which the caller must not modify afterwards.
func (t *Table) AddRowOwned(row []int32) {
	if len(row) != len(t.cols) {
		panic(fmt.Sprintf("storage: AddRowOwned with %d values into %d columns", len(row), len(t.cols)))
	}
	t.rows = append(t.rows, row)
}

// Project returns a new table with only the named columns, in the given
// order. Duplicates rows are preserved; combine with Distinct if needed.
// Unknown columns are an error.
func (t *Table) Project(cols ...string) (*Table, error) {
	out := NewTable(cols...)
	srcIdx := make([]int, len(cols))
	for i, c := range cols {
		j := t.Column(c)
		if j < 0 {
			return nil, fmt.Errorf("storage: projection on unknown column %q", c)
		}
		srcIdx[i] = j
	}
	for _, row := range t.rows {
		nr := make([]int32, len(cols))
		for i, j := range srcIdx {
			nr[i] = row[j]
		}
		out.AddRowOwned(nr)
	}
	return out, nil
}

// rowSig hashes the values of row at the given column indexes (all
// columns when idx is nil) with the splitmix64 finalizer per value —
// order-sensitive, no string is built. Collisions are possible; callers
// verify with rowEqual.
func rowSig(row []int32, idx []int) uint64 {
	h := uint64(0x8afe63e23465a715)
	if idx == nil {
		for _, v := range row {
			h = hash64.Mix(h ^ uint64(uint32(v)))
		}
	} else {
		for _, i := range idx {
			h = hash64.Mix(h ^ uint64(uint32(row[i])))
		}
	}
	return h
}

// rowEqual compares the projections of two rows on the given column
// indexes (whole rows when both index slices are nil).
func rowEqual(a []int32, ai []int, b []int32, bi []int) bool {
	if ai == nil && bi == nil {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if len(ai) != len(bi) {
		return false
	}
	for i := range ai {
		if a[ai[i]] != b[bi[i]] {
			return false
		}
	}
	return true
}

// Distinct returns a copy of t without duplicate rows, preserving first
// occurrence order. Rows are deduplicated through 64-bit hashes with
// collision-checked buckets, not string keys.
func (t *Table) Distinct() *Table {
	out := NewTable(t.cols...)
	seen := make(map[uint64][]int, len(t.rows)) // sig -> kept row indexes in out
	for _, row := range t.rows {
		sig := rowSig(row, nil)
		dup := false
		for _, i := range seen[sig] {
			if rowEqual(out.rows[i], nil, row, nil) {
				dup = true
				break
			}
		}
		if !dup {
			seen[sig] = append(seen[sig], len(out.rows))
			out.AddRowOwned(row)
		}
	}
	return out
}

// Select returns the rows satisfying pred. The predicate receives shared
// row storage and must not retain or modify it.
func (t *Table) Select(pred func(row []int32) bool) *Table {
	out := NewTable(t.cols...)
	for _, row := range t.rows {
		if pred(row) {
			out.AddRowOwned(row)
		}
	}
	return out
}

// ColumnValues returns the distinct values of the named column, sorted.
func (t *Table) ColumnValues(name string) ([]int32, error) {
	i := t.Column(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: unknown column %q", name)
	}
	out := make([]int32, len(t.rows))
	for r, row := range t.rows {
		out[r] = row[i]
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// NaturalJoin hash-joins a and b on all shared columns. With no shared
// columns it degrades to a cross product, as SQL's NATURAL JOIN does. The
// output columns are a's columns followed by b's non-shared columns.
func NaturalJoin(a, b *Table) *Table {
	out, _ := NaturalJoinTick(a, b, nil)
	return out
}

// tickRows is how many output rows NaturalJoinTick lets pass between two
// calls of its hook.
const tickRows = 1024

// NaturalJoinTick is NaturalJoin with a progress hook, for callers that
// meter or may abandon a large join: tick, when non-nil, is called about
// every thousand output rows with the number emitted since its last call
// (every emitted row is reported exactly once), and a non-nil error from
// it abandons the join and is returned.
func NaturalJoinTick(a, b *Table, tick func(rows int) error) (*Table, error) {
	var shared []string
	for _, c := range a.cols {
		if b.HasColumn(c) {
			shared = append(shared, c)
		}
	}
	var bExtra []string
	for _, c := range b.cols {
		if !a.HasColumn(c) {
			bExtra = append(bExtra, c)
		}
	}
	out := NewTable(append(append([]string(nil), a.cols...), bExtra...)...)
	reported := 0
	progress := func(final bool) error {
		if n := len(out.rows) - reported; tick != nil && n > 0 && (final || n >= tickRows) {
			reported = len(out.rows)
			return tick(n)
		}
		return nil
	}

	if len(shared) == 0 {
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				out.AddRowOwned(joinRows(ra, rb, nil, b))
			}
			if err := progress(false); err != nil {
				return nil, err
			}
		}
		return out, progress(true)
	}

	// Build on the smaller side for memory locality; probe the larger.
	build, probe := b, a
	buildIsB := true
	if a.NumRows() < b.NumRows() {
		build, probe = a, b
		buildIsB = false
	}
	bKey := make([]int, len(shared))
	pKey := make([]int, len(shared))
	for i, c := range shared {
		bKey[i] = build.Column(c)
		pKey[i] = probe.Column(c)
	}
	// Hash join on 64-bit row signatures; the probe re-verifies the key
	// columns so hash collisions cannot fabricate matches.
	ht := make(map[uint64][]int, build.NumRows())
	for i, row := range build.rows {
		sig := rowSig(row, bKey)
		ht[sig] = append(ht[sig], i)
	}
	bExtraIdx := make([]int, len(bExtra))
	for i, c := range bExtra {
		bExtraIdx[i] = b.Column(c)
	}
	for _, pr := range probe.rows {
		matches := ht[rowSig(pr, pKey)]
		for _, mi := range matches {
			br := build.rows[mi]
			if !rowEqual(br, bKey, pr, pKey) {
				continue // hash collision, not a join partner
			}
			var ra, rb []int32
			if buildIsB {
				ra, rb = pr, br
			} else {
				ra, rb = br, pr
			}
			nr := make([]int32, 0, len(a.cols)+len(bExtra))
			nr = append(nr, ra...)
			for _, j := range bExtraIdx {
				nr = append(nr, rb[j])
			}
			out.AddRowOwned(nr)
		}
		if err := progress(false); err != nil {
			return nil, err
		}
	}
	return out, progress(true)
}

func joinRows(ra, rb []int32, bExtraIdx []int, b *Table) []int32 {
	nr := make([]int32, 0, len(ra)+len(rb))
	nr = append(nr, ra...)
	if bExtraIdx == nil {
		nr = append(nr, rb...)
		return nr
	}
	for _, j := range bExtraIdx {
		nr = append(nr, rb[j])
	}
	return nr
}

// String renders a small table for debugging and tests.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.cols, "\t"))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
