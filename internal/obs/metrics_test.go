package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func scrape(t *testing.T, r *Registry) []*MetricFamily {
	t.Helper()
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	return fams
}

// TestExpositionRoundTrip is the exposition-format contract: every kind
// of family the registry emits must round-trip through the strict
// parser — HELP/TYPE lines present, counters monotone, histogram
// buckets cumulative with le="+Inf" agreeing with _count.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Exposition) {
		e.Table([]Stat{
			{Name: "ctp_test_total", Help: "A test counter.", Type: "counter", Value: int64(3)},
			{Name: "ctp_test_depth", Help: "A test gauge.", Type: "gauge", Value: -2.5},
		})
	})
	cv := r.NewCounterVec("ctp_test_responses_total", "Labeled counter.", "class", "status")
	h := r.NewHistogramVec("ctp_test_duration_seconds", "A histogram.", nil).With()
	hv := r.NewHistogramVec("ctp_test_stage_seconds", "Labeled histogram.", []float64{0.1, 1}, "stage")

	cv.With("cheap", "ok").Inc()
	cv.With("cheap", "ok").Inc()
	for i := 0; i < 5; i++ {
		cv.With("analytical", `we"ird\label`+"\n").Inc()
	}
	for _, v := range []float64{0.0001, 0.003, 0.003, 0.7, 99} {
		h.Observe(v)
	}
	hv.With("parse").Observe(0.05)
	hv.With("join").Observe(5)

	fams := scrape(t, r)
	for _, name := range []string{
		"ctp_test_total", "ctp_test_depth", "ctp_test_responses_total",
		"ctp_test_duration_seconds", "ctp_test_stage_seconds",
	} {
		f := Find(fams, name)
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		if f.Help == "" || f.Type == "" {
			t.Fatalf("family %s missing HELP or TYPE", name)
		}
	}
	if v, ok := Find(fams, "ctp_test_total").Value("ctp_test_total", nil); !ok || v != 3 {
		t.Fatalf("counter = %v ok=%v, want 3", v, ok)
	}
	if v, _ := Find(fams, "ctp_test_depth").Value("ctp_test_depth", nil); v != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", v)
	}
	cvf := Find(fams, "ctp_test_responses_total")
	if v, _ := cvf.Value("ctp_test_responses_total", map[string]string{"class": "cheap", "status": "ok"}); v != 2 {
		t.Fatalf("vec cell = %v, want 2", v)
	}
	if v, _ := cvf.Value("ctp_test_responses_total", map[string]string{"class": "analytical"}); v != 5 {
		t.Fatal("escaped label value lost its sample")
	}
	hf := Find(fams, "ctp_test_duration_seconds")
	if v, _ := hf.Value("ctp_test_duration_seconds_count", nil); v != 5 {
		t.Fatalf("_count = %v, want 5", v)
	}
	if v, _ := hf.Value("ctp_test_duration_seconds_bucket", map[string]string{"le": "+Inf"}); v != 5 {
		t.Fatalf("+Inf bucket = %v, want 5", v)
	}
	if v, _ := hf.Value("ctp_test_duration_seconds_bucket", map[string]string{"le": "0.005"}); v != 3 {
		t.Fatalf("0.005 bucket = %v, want 3 (cumulative)", v)
	}
	sum, _ := hf.Value("ctp_test_duration_seconds_sum", nil)
	if math.Abs(sum-99.7061) > 1e-9 {
		t.Fatalf("_sum = %v", sum)
	}
}

// TestStatTable: one counter table renders both surfaces — keys nest
// into the /stats object, consecutive rows of one family share a single
// HELP/TYPE header, and each surface skips the other's rows.
func TestStatTable(t *testing.T) {
	lbl := func(v string) []Label { return []Label{{Name: "class", Value: v}} }
	rows := []Stat{
		{Key: "requests", Name: "ctp_t_requests_total", Help: "Requests.", Type: "counter", Value: int64(4)},
		{Key: "health", Value: "ok"},
		{Key: "admission.cheap.running", Name: "ctp_t_running", Help: "Running.", Type: "gauge", Labels: lbl("cheap"), Value: 1},
		{Key: "admission.cheap.avg_wait_ms", Value: 0.5},
		{Key: "admission.analytical.running", Name: "ctp_t_running", Help: "Running.", Type: "gauge", Labels: lbl("analytical"), Value: 2},
		{Name: "ctp_t_compacting", Help: "Compacting.", Type: "gauge", Value: true},
	}
	doc, err := json.Marshal(JSON(rows))
	if err != nil {
		t.Fatal(err)
	}
	const wantDoc = `{"admission":{"analytical":{"running":2},"cheap":{"avg_wait_ms":0.5,"running":1}},"health":"ok","requests":4}`
	if string(doc) != wantDoc {
		t.Fatalf("/stats = %s\nwant %s", doc, wantDoc)
	}

	r := NewRegistry()
	r.Collect(func(e *Exposition) { e.Table(rows) })
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	const wantMetrics = `# HELP ctp_t_requests_total Requests.
# TYPE ctp_t_requests_total counter
ctp_t_requests_total 4
# HELP ctp_t_running Running.
# TYPE ctp_t_running gauge
ctp_t_running{class="cheap"} 1
ctp_t_running{class="analytical"} 2
# HELP ctp_t_compacting Compacting.
# TYPE ctp_t_compacting gauge
ctp_t_compacting 1
`
	if b.String() != wantMetrics {
		t.Fatalf("/metrics =\n%s\nwant\n%s", b.String(), wantMetrics)
	}
}

// TestCountersMonotone scrapes twice around increments and asserts no
// sample ever decreases — the monotonicity the parser can't see from a
// single scrape.
func TestCountersMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("ctp_mono_total", "x", "class")
	h := r.NewHistogramVec("ctp_mono_seconds", "x", nil).With()
	c.With("cheap").Inc()
	before := scrape(t, r)
	for i := 0; i < 7; i++ {
		c.With("cheap").Inc()
	}
	h.Observe(0.01)
	h.Observe(3)
	after := scrape(t, r)
	for _, f := range before {
		g := Find(after, f.Name)
		for _, s := range f.Samples {
			v2, ok := g.Value(s.Name, s.Labels)
			if !ok {
				t.Fatalf("sample %s vanished between scrapes", s.Name)
			}
			if v2 < s.Value {
				t.Fatalf("%s went backwards: %v -> %v", s.Name, s.Value, v2)
			}
		}
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "foo 1\n",
		"missing +Inf bucket": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative":      "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"+Inf != count":       "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"negative counter":    "# HELP c x\n# TYPE c counter\nc -1\n",
		"unknown type":        "# HELP c x\n# TYPE c widget\nc 1\n",
		"duplicate TYPE":      "# HELP c x\n# TYPE c counter\n# TYPE c counter\nc 1\n",
		"foreign sample":      "# HELP c x\n# TYPE c counter\nother 1\n",
		"bad labels":          "# HELP c x\n# TYPE c counter\nc{a=b} 1\n",
		"no value":            "# HELP c x\n# TYPE c counter\nc\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("ctp_http_total", "x", "status").With("ok").Inc()
	rr := httptest.NewRecorder()
	r.ServeMetrics(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if _, err := ParseExposition(rr.Body); err != nil {
		t.Fatalf("served metrics do not parse: %v", err)
	}
	rr = httptest.NewRecorder()
	r.ServeMetrics(rr, httptest.NewRequest("POST", "/metrics", nil))
	if rr.Code != 405 {
		t.Fatalf("POST returned %d, want 405", rr.Code)
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		0:      "0",
		42:     "42",
		-3:     "-3",
		2.5:    "2.5",
		0.0005: "0.0005",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
