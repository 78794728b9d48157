package benchmarks

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Span is one traced interval, recorded from benchmark code around a call
// into a layer (or synthesized from timings a layer returned). Spans of
// one operation share Op; Parent is the ID of the span that caused this
// one (0 for an operation's root). Times are nanoseconds since the
// recorder was created.
type Span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; IDs are dense from 1.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a span and returns its ID.
func (r *Recorder) Add(op, parent int, name string, startNS, endNS int64) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{Op: op, ID: id, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS})
	r.mu.Unlock()
	return id
}

// Spans returns the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line to path, creating its directory.
func (r *Recorder) WriteJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of its interval that its direct
// children cover. Overlapping children (two CTP searches run in parallel)
// are counted once — the cover is the union of their intervals clipped to
// the parent.
func SelfTimes(spans []Span) map[string]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.EndNS - s.StartNS) - cover(s, children[s.ID])
	}
	return self
}

// cover is the length of the union of kids' intervals inside parent's.
func cover(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	end := parent.StartNS
	for _, k := range kids {
		lo, hi := k.StartNS, k.EndNS
		if lo < end {
			lo = end
		}
		if hi > parent.EndNS {
			hi = parent.EndNS
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}
