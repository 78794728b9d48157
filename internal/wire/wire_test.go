package wire

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
