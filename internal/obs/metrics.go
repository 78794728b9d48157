package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the repository-wide fixed histogram layout for
// request and stage latencies, in seconds. ctpload exports its
// client-side histograms in the same layout so client-vs-server
// latency diffs line up bucket for bucket.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Registry owns a set of metric families and renders them in
// Prometheus text exposition format (version 0.0.4). Two kinds of
// sources coexist: always-on labeled instruments (CounterVec,
// HistogramVec — plain atomics, safe on every hot path) and Collect
// callbacks that render a server's counter table (Stat) at scrape time
// only.
type Registry struct {
	mu   sync.Mutex
	cols []func(w *Exposition)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect registers a scrape-time callback. Callbacks run in
// registration order under the registry lock; each must emit complete
// families (Family then its samples).
func (r *Registry) Collect(f func(w *Exposition)) {
	r.mu.Lock()
	r.cols = append(r.cols, f)
	r.mu.Unlock()
}

// Write renders every family to w.
func (r *Registry) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	exp := &Exposition{w: bw}
	r.mu.Lock()
	cols := make([]func(w *Exposition), len(r.cols))
	copy(cols, r.cols)
	r.mu.Unlock()
	for _, f := range cols {
		f(exp)
	}
	return bw.Flush()
}

// ServeMetrics is the GET /metrics handler.
func (r *Registry) ServeMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Write(w)
}

// Counter is one monotone cell of a CounterVec.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	m      map[string]*vecCounter
}

type vecCounter struct {
	labels []Label
	Counter
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, m: make(map[string]*vecCounter)}
	r.Collect(func(w *Exposition) {
		w.Family(name, help, "counter")
		for _, e := range v.sorted() {
			w.Sample("", e.labels, float64(e.v.Load()))
		}
	})
	return v
}

func (v *CounterVec) sorted() []*vecCounter {
	v.mu.Lock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*vecCounter, 0, len(keys))
	for _, k := range keys {
		out = append(out, v.m[k])
	}
	v.mu.Unlock()
	return out
}

// With returns the counter cell for the given label values (created on
// first use). len(values) must match the vec's label names.
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	e, ok := v.m[key]
	if !ok {
		e = &vecCounter{labels: labelSet(v.labels, values)}
		v.m[key] = e
	}
	v.mu.Unlock()
	return &e.Counter
}

// labelSet pairs a vec's label names with one cell's values; a missing
// value is empty.
func labelSet(names, values []string) []Label {
	ls := make([]Label, len(names))
	for i, n := range names {
		ls[i].Name = n
		if i < len(values) {
			ls[i].Value = values[i]
		}
	}
	return ls
}

// Histogram is one fixed-bucket cell of a HistogramVec. Observations
// are atomic and lock-free; buckets are cumulative only at exposition
// time.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64 // len(bounds)+1, last is the +Inf overflow
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// snapshot returns the cumulative bucket counts (one per bound, plus
// +Inf last), the total count, and the sum.
func (h *Histogram) snapshot() (cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return cumulative, h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// write emits the _bucket/_sum/_count samples with extra labels.
func (h *Histogram) write(w *Exposition, labels []Label) {
	cum, count, sum := h.snapshot()
	bl := make([]Label, len(labels)+1)
	copy(bl, labels)
	for i, b := range h.bounds {
		bl[len(labels)] = Label{Name: "le", Value: formatFloat(b)}
		w.Sample("_bucket", bl, float64(cum[i]))
	}
	bl[len(labels)] = Label{Name: "le", Value: "+Inf"}
	w.Sample("_bucket", bl, float64(cum[len(cum)-1]))
	w.Sample("_sum", labels, sum)
	w.Sample("_count", labels, float64(count))
}

// HistogramVec is a histogram family keyed by label values, sharing
// one bucket layout.
type HistogramVec struct {
	labels  []string
	buckets []float64
	mu      sync.Mutex
	m       map[string]*vecHistogram
}

type vecHistogram struct {
	labels []Label
	h      *Histogram
}

// NewHistogramVec registers a labeled histogram family. A nil bucket
// slice selects LatencyBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	v := &HistogramVec{labels: labels, buckets: buckets, m: make(map[string]*vecHistogram)}
	r.Collect(func(w *Exposition) {
		w.Family(name, help, "histogram")
		v.mu.Lock()
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cells := make([]*vecHistogram, 0, len(keys))
		for _, k := range keys {
			cells = append(cells, v.m[k])
		}
		v.mu.Unlock()
		for _, c := range cells {
			c.h.write(w, c.labels)
		}
	})
	return v
}

// With returns the histogram cell for the given label values (created
// on first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	e, ok := v.m[key]
	if !ok {
		e = &vecHistogram{labels: labelSet(v.labels, values),
			h: &Histogram{bounds: v.buckets, counts: make([]atomic.Uint64, len(v.buckets)+1)}}
		v.m[key] = e
	}
	v.mu.Unlock()
	return e.h
}

// Exposition writes Prometheus text format. Collect callbacks receive
// one; Family starts a family (HELP + TYPE lines), Sample appends one
// sample line to the current family.
type Exposition struct {
	w      *bufio.Writer
	family string
}

// Family emits the # HELP and # TYPE header for a new family.
func (e *Exposition) Family(name, help, typ string) {
	e.family = name
	e.w.WriteString("# HELP ")
	e.w.WriteString(name)
	e.w.WriteByte(' ')
	e.w.WriteString(escapeHelp(help))
	e.w.WriteByte('\n')
	e.w.WriteString("# TYPE ")
	e.w.WriteString(name)
	e.w.WriteByte(' ')
	e.w.WriteString(typ)
	e.w.WriteByte('\n')
}

// Sample emits one sample of the current family. suffix is appended to
// the family name ("_bucket", "_sum", "_count", or "").
func (e *Exposition) Sample(suffix string, labels []Label, v float64) {
	e.w.WriteString(e.family)
	e.w.WriteString(suffix)
	if len(labels) > 0 {
		e.w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				e.w.WriteByte(',')
			}
			e.w.WriteString(l.Name)
			e.w.WriteString(`="`)
			e.w.WriteString(escapeLabel(l.Value))
			e.w.WriteByte('"')
		}
		e.w.WriteByte('}')
	}
	e.w.WriteByte(' ')
	e.w.WriteString(formatFloat(v))
	e.w.WriteByte('\n')
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders integral values without an exponent so counters
// read naturally, everything else in Go's shortest float form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
