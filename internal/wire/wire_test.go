package wire

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ctpquery/internal/obs"
)

// TestRecover pins the containment boundary both servers share: a panic
// answers a structured 500 carrying onPanic's message, a response
// already under way gets no second header, and http.ErrAbortHandler is
// the standard library's to handle.
func TestRecover(t *testing.T) {
	panics := 0
	onPanic := func(r *http.Request, rec any) string {
		panics++
		return r.URL.Path + ": " + rec.(string)
	}
	serve := func(h http.HandlerFunc) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		Recover(h, onPanic).ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
		return rec
	}

	rec := serve(func(http.ResponseWriter, *http.Request) { panic("boom") })
	var body Error
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic answered %d %q (%v), want a 500 Error body", rec.Code, rec.Body, err)
	}
	if body.Error != "/query: boom" || panics != 1 {
		t.Fatalf("error %q after %d onPanic calls, want \"/query: boom\" after 1", body.Error, panics)
	}

	rec = serve(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, Error{Error: "partial"})
		panic("late")
	})
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), "error") != 1 || panics != 2 {
		t.Fatalf("late panic: %d %q after %d onPanic calls; want the started 200 left alone", rec.Code, rec.Body, panics)
	}

	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-panicked", r)
		}
		if panics != 2 {
			t.Fatalf("onPanic ran for http.ErrAbortHandler")
		}
	}()
	serve(func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
}

// TestSearchAdd: counters sum, peak_queue_len and parallelism keep the
// larger value, and workers sum index-aligned, growing the receiver.
func TestSearchAdd(t *testing.T) {
	s := Search{TreesGenerated: 5, TreesKept: 2, PeakTrees: 3, PeakQueueLen: 9, Parallelism: 2,
		Workers: []Worker{{Ops: 1, Kept: 1, Shipped: 1, BusyMS: 0.5}}}
	s.Add(Search{TreesGenerated: 7, TreesKept: 4, TreesRecycled: 3, PeakTrees: 4, PeakQueueLen: 6,
		Allocations: 11, BGPExamined: 64, BGPRows: 8, Parallelism: 4,
		Workers: []Worker{{Ops: 2, Kept: 3, BusyMS: 0.25}, {Ops: 5, Shipped: 2, BusyMS: 1}}})
	want := Search{TreesGenerated: 12, TreesKept: 6, TreesRecycled: 3, PeakTrees: 7, PeakQueueLen: 9,
		Allocations: 11, BGPExamined: 64, BGPRows: 8, Parallelism: 4,
		Workers: []Worker{{Ops: 3, Kept: 4, Shipped: 1, BusyMS: 0.75}, {Ops: 5, Shipped: 2, BusyMS: 1}}}
	got, _ := json.Marshal(s)
	if exp, _ := json.Marshal(want); string(got) != string(exp) {
		t.Fatalf("fold = %s, want %s", got, exp)
	}
}

// TestAttrsAreReportKeys: a report's span attributes, read back as a JSON
// object, decode into the same report, so a trace and /query cannot name
// a counter differently; a zero report carries no attributes.
func TestAttrsAreReportKeys(t *testing.T) {
	decode := func(attrs []obs.Attr, into any) {
		t.Helper()
		obj := map[string]json.RawMessage{}
		for _, a := range attrs {
			obj[a.Key] = json.RawMessage(a.Val)
		}
		raw, err := json.Marshal(obj)
		if err == nil {
			err = json.Unmarshal(raw, into)
		}
		if err != nil {
			t.Fatalf("attrs %v do not read back as JSON: %v", attrs, err)
		}
	}
	s := Search{TreesGenerated: 1, TreesKept: 2, TreesRecycled: 3, PeakTrees: 4, PeakQueueLen: 5,
		Allocations: 6, BGPExamined: 7, BGPRows: 8, Parallelism: 9}
	var got Search
	decode(s.Attrs(), &got)
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("attrs read back as %+v, want %+v", got, s)
	}
	if attrs := (Search{}).Attrs(); len(attrs) != 0 {
		t.Fatalf("zero report has attrs %v", attrs)
	}
	w := Worker{Ops: 3, Shipped: 1, BusyMS: 0.125}
	var gw Worker
	decode(w.Attrs(), &gw)
	if gw != w || len(w.Attrs()) != 4 {
		t.Fatalf("worker attrs %v read back as %+v, want all four keys of %+v", w.Attrs(), gw, w)
	}
}
