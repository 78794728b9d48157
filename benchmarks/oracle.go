package benchmarks

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"ctpquery"
)

// An answer is identified by its row count and a digest of its sorted row
// keys. Two kinds of row key exist:
//
//   - merge keys (Results.MergeKey, shipped over HTTP as row_keys): the
//     scatter-gather identity of a row. They embed node and edge IDs, so
//     they compare only across loads of the same graph build — true for
//     every frozen-graph workload, whose graphs are loaded from snapshots.
//   - label keys: the row rendered through node and edge labels. Slower
//     to compute but stable across compactions, which may renumber edge
//     IDs; live-mixed uses them.

// Digest hashes keys order-independently (they are sorted first).
func Digest(keys []string) string {
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// MergeKeys returns every row's merge key.
func MergeKeys(res *ctpquery.Results) []string {
	keys := make([]string, res.Len())
	for i := range keys {
		keys[i] = res.MergeKey(i)
	}
	return keys
}

// LabelKeys returns every row's label key.
func LabelKeys(res *ctpquery.Results) []string {
	cols := res.Columns()
	keys := make([]string, res.Len())
	var sb strings.Builder
	for i := range keys {
		sb.Reset()
		row := res.Row(i)
		for ci, c := range cols {
			if ci > 0 {
				sb.WriteByte('\t')
			}
			if !res.IsTreeColumn(c) {
				sb.WriteString(row.Label(c))
				continue
			}
			sb.WriteString(treeLabelKey(row.Tree(c)))
		}
		keys[i] = sb.String()
	}
	return keys
}

func treeLabelKey(t *ctpquery.Tree) string {
	if t == nil {
		return "-"
	}
	edges := t.Edges()
	if len(edges) == 0 {
		return "@" + t.Format()
	}
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = e.SrcLabel + " " + e.Label + " " + e.DstLabel
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// Keys returns res's row keys of the kind the plan uses.
func (p *Plan) Keys(res *ctpquery.Results) []string {
	if p.LabelDigests {
		return LabelKeys(res)
	}
	return MergeKeys(res)
}

// Check compares an answer with q's expected one.
func (q *Query) Check(rows int, keys []string) error {
	if rows != q.Rows {
		return fmt.Errorf("%d rows, want %d", rows, q.Rows)
	}
	if len(keys) != rows {
		return fmt.Errorf("%d row keys for %d rows", len(keys), rows)
	}
	if d := Digest(keys); d != q.Digest {
		return fmt.Errorf("digest %s, want %s", d, q.Digest)
	}
	return nil
}

// CheckResults verifies a facade answer: complete (not timed out, not
// truncated beyond the query's own LIMIT) and equal to the oracle's.
func (p *Plan) CheckResults(q *Query, res *ctpquery.Results) error {
	if res.TimedOut() {
		return fmt.Errorf("timed out")
	}
	return q.Check(res.Len(), p.Keys(res))
}
