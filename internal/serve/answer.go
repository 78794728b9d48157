package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/obs"
	"ctpquery/internal/wire"
)

// The per-request fields of a hit that do not vary: its cache report,
// and the admission report of a server with admission.
var (
	hitCache        = encodeJSON(wire.Cache{Hit: true})
	bypassAdmission = encodeJSON(wire.Admission{Class: admission.Cheap.String(), CacheBypass: true})
)

// encodeJSON encodes v as wire.WriteJSON does, without the newline.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	appendJSON(&b, v)
	return b.Bytes()
}

// appendJSON appends v to b encoded as wire.WriteJSON does, without the
// newline.
func appendJSON(b *bytes.Buffer, v any) {
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // the wire types always encode
	}
	b.Truncate(b.Len() - 1)
}

// renderBufs recycles the buffers render encodes in before it copies the
// rendering out at its exact size; like answerBufs, it keeps none larger
// than maxPooledAnswer.
var renderBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// variant is what a request changes in the rendering of a result: the
// effective row cap, omit_trees and include_keys.
type variant struct {
	maxRows                int
	omitTrees, includeKeys bool
}

// key packs v into the variant key of Results.Memo.
func (v variant) key() uint64 {
	k := uint64(v.maxRows) << 2
	if v.omitTrees {
		k |= 2
	}
	if v.includeKeys {
		k |= 1
	}
	return k
}

// rendering is the part of a /query answer that one result and one
// variant fix: the encoded wire.Response up to the value of
// timings_ms.total (head), and from after it through the search report
// (tail). The fields that come after — cache, admission, trace_id — and
// total itself are the request's.
type rendering struct{ head, tail []byte }

// size is what a rendering holds: its bytes and its two slice headers.
func (rd *rendering) size() int64 { return int64(len(rd.head)+len(rd.tail)) + 48 }

// totalMark is where a rendering is cut: total, encoded as 0, and the
// search report that follows it. The search report holds no "total" key
// and nothing after it is set, so the last occurrence is the field.
var totalMark = []byte(`"total":0},"search":{`)

// render encodes res for v as the constant part of its answer.
func render(res *ctpquery.Results, algorithm string, v variant) *rendering {
	probeQueryEncode.Hit()
	st := res.SearchStats()
	resp := wire.Response[wire.Row]{
		Columns:   res.Columns(),
		Rows:      []wire.Row{},
		RowCount:  res.Len(),
		TimedOut:  res.TimedOut(),
		Truncated: res.Truncated(),
		Algorithm: algorithm,
		Search:    &st,
	}
	bgp, ctp, join := res.Timings()
	resp.TimingsMS = wire.Timings{BGP: ms(bgp), CTP: ms(ctp), Join: ms(join)}

	n := res.Len()
	if v.maxRows > 0 && n > v.maxRows {
		n = v.maxRows
		resp.RowsTruncated = true
	}
	for i := 0; i < n; i++ {
		if v.includeKeys {
			resp.RowKeys = append(resp.RowKeys, res.MergeKey(i))
		}
		row := res.Row(i)
		out := make(wire.Row, len(resp.Columns))
		for _, col := range resp.Columns {
			if !res.IsTreeColumn(col) {
				id, _ := row.Node(col)
				v := int32(id)
				out[col] = wire.Cell{ID: &v, Label: row.Label(col)}
				continue
			}
			t := row.Tree(col)
			if t == nil {
				out[col] = wire.Cell{}
				continue
			}
			tj := &wire.Tree{Size: t.Size()}
			if !v.omitTrees {
				// Render against the run's own pinned view, not the server's
				// live graph: a mutation landing between execution and
				// encoding must not relabel (or misname) this result's nodes.
				tj.Root = res.Graph().NodeLabel(t.Root())
				for _, e := range t.Edges() {
					tj.Edges = append(tj.Edges, wire.Edge{Src: e.SrcLabel, Label: e.Label, Dst: e.DstLabel})
				}
			}
			out[col] = wire.Cell{Tree: tj}
		}
		resp.Rows = append(resp.Rows, out)
	}

	enc := renderBufs.Get().(*bytes.Buffer)
	enc.Reset()
	appendJSON(enc, resp)
	b := enc.Bytes()
	i := bytes.LastIndex(b, totalMark)
	head := b[:i+len(`"total":`)]
	tail := b[i+len(`"total":0`) : len(b)-1] // the answer's closing brace is written per request
	buf := make([]byte, 0, len(head)+len(tail))
	buf = append(append(buf, head...), tail...)
	if enc.Cap() <= maxPooledAnswer {
		renderBufs.Put(enc)
	}
	return &rendering{head: buf[:len(head):len(head)], tail: buf[len(head):]}
}

// answerBufs recycles the buffers answers are composed in; one larger
// than maxPooledAnswer is left to the collector.
var answerBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledAnswer = 64 << 10

// answer writes the 200 answer for res under an "encode" child span of
// the request's root: the result's rendering for the request's variant
// around the per-request fields — timings_ms.total, then cacheJSON and
// admJSON (already encoded; nil leaves the field out) and trace_id — in
// wire.Response's key order, so the body is what encoding a
// wire.Response writes. A hit takes the rendering its cache entry keeps
// (made on the entry's first hit); any other answer renders. The root
// span ends before the body is written, so a client that follows
// trace_id the moment it reads the answer finds the trace recorded.
func (s *Server) answer(w http.ResponseWriter, res *ctpquery.Results, db *ctpquery.DB, req wire.Request, start time.Time, sp *obs.Span, hit bool, cacheJSON, admJSON []byte) {
	encSpan := sp.Child("encode")
	// Deferred (End is idempotent): a panic inside the encode — the
	// serve.query.encode probe is armed exactly there — must not leak
	// the span past the containment middleware.
	defer encSpan.End()
	encStart := time.Now()
	total := encStart.Sub(start)
	v := variant{maxRows: s.maxRows, omitTrees: req.OmitTrees, includeKeys: req.IncludeKeys}
	if req.MaxRows > 0 && (v.maxRows == 0 || req.MaxRows < v.maxRows) {
		v.maxRows = req.MaxRows
	}
	alg := db.Options().Algorithm
	var rd *rendering
	if hit {
		rd = res.Memo(v.key(), func() (any, int64) {
			rd := render(res, alg, v)
			return rd, rd.size()
		}).(*rendering)
	} else {
		rd = render(res, alg, v)
	}

	bp := answerBufs.Get().(*[]byte)
	b := append((*bp)[:0], rd.head...)
	b = appendFloat(b, ms(total))
	b = append(b, rd.tail...)
	if cacheJSON != nil {
		b = append(append(b, `,"cache":`...), cacheJSON...)
	}
	if admJSON != nil {
		b = append(append(b, `,"admission":`...), admJSON...)
	}
	if id := sp.TraceID(); id != "" {
		// Trace IDs are hex: nothing to escape.
		b = append(append(append(b, `,"trace_id":"`...), id...), '"')
	}
	b = append(b, "}\n"...)
	s.met.stage(stageEncode).Observe(time.Since(encStart).Seconds())
	encSpan.End()
	sp.End()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledAnswer {
		*bp = b
		answerBufs.Put(bp)
	}
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that round-trips, in exponent form below 1e-6 and from 1e21 on,
// with a negative two-digit exponent shortened to one digit (1e-07 is
// written 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
