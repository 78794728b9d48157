// Package cluster is the scatter-gather serving tier: a coordinator
// routes EQL queries across N ctpserve shards and merges their answers,
// surviving shards that die, drain, or stall mid-query.
//
// The engine becomes location-transparent through a Transport/Shard
// split: a Transport delivers one wire request to one backend — over
// HTTP (HTTPTransport) or straight into an in-process handler
// (LocalTransport) — while a Shard wraps a Transport with the
// robustness state the coordinator routes on: a circuit breaker
// (closed/open/half-open with probe admission), the health color
// refreshed by the background prober from the backend's 3-state
// /healthz (ok / degraded / draining), and latency/error accounting.
//
// Shards are arranged in groups: members of one group are replicas
// answering the same slice of the data, distinct groups partition it. A
// query is routed to one member per group — healthy members first,
// degraded ones deprioritized, draining and breaker-open ones out of
// rotation — with per-shard deadline propagation, capped exponential
// retry with jitter across members (queries are idempotent reads), and
// an optional hedged second request when the primary straggles. Multi-
// group answers are merged on the canonical per-row merge keys the
// shards export (ctpquery.Results.MergeKey — the PR 4 collector's
// score/size/edge-key order), so the gathered output is deterministic
// regardless of arrival order. When a whole group has no answering
// member the gather degrades gracefully: it returns what it has plus a
// structured "degraded" block naming the missing shards instead of
// failing the query.
//
// The package carries three fault probes — cluster.send,
// cluster.gather.merge, cluster.health.probe — so the chaos suite can
// kill, delay, and error shards deterministically (internal/fault).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ctpquery/internal/fault"
	"ctpquery/internal/obs"
	"ctpquery/internal/wire"
)

// Transport-level probe points (inert unless armed via internal/fault):
// send fires before every shard query delivery, health.probe before
// every background health probe — both error-capable, so chaos tests
// inject shard loss and latency at the transport boundary — and
// gather.merge fires inside the merge, inside the coordinator's recover
// middleware.
var (
	probeSend   = fault.Register("cluster.send")
	probeMerge  = fault.Register("cluster.gather.merge")
	probeHealth = fault.Register("cluster.health.probe")
)

// Request is the query a coordinator scatters: ctpserve's POST /query
// body.
type Request = wire.Request

// Response is one decoded shard answer. Rows stay raw JSON — the
// coordinator merges and forwards them without re-interpreting cells —
// and StatusCode and RetryAfterS carry the transport's status line and
// Retry-After header.
type Response = wire.Response[json.RawMessage]

// Transport delivers wire requests to one backend. Send returns an
// error only for transport-level failures (connection refused, decode
// garbage, injected cluster.send faults); an HTTP-level refusal comes
// back as a Response carrying its StatusCode, so the caller can tell "a
// shard said no" from "no shard there".
type Transport interface {
	// Target names the backend for logs, /stats, and degraded blocks.
	Target() string
	// Send posts one query to the backend's /query.
	Send(ctx context.Context, req *Request) (*Response, error)
	// Probe checks the backend's /healthz.
	Probe(ctx context.Context) (HealthReport, error)
}

// HealthReport is one /healthz observation.
type HealthReport struct {
	// Status is the shard's reported state: "ok", "degraded", "draining".
	Status string `json:"status"`
	// StatusCode is the HTTP code the probe answered with.
	StatusCode int `json:"-"`
}

// HTTPTransport reaches a shard over HTTP — the production transport.
type HTTPTransport struct {
	// Base is the shard's base URL, e.g. "http://shard0:8372".
	Base string
	// Client issues the requests; nil uses a default without its own
	// timeout (per-attempt deadlines come from the request context).
	Client *http.Client
}

func (t *HTTPTransport) Target() string { return t.Base }

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPTransport) Send(ctx context.Context, req *Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	setTraceparent(ctx, hreq)
	hresp, err := t.client().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	return decodeResponse(hresp.StatusCode, hresp.Header, hresp.Body)
}

func (t *HTTPTransport) Probe(ctx context.Context) (HealthReport, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/healthz", nil)
	if err != nil {
		return HealthReport{}, err
	}
	hresp, err := t.client().Do(hreq)
	if err != nil {
		return HealthReport{}, err
	}
	defer hresp.Body.Close()
	return decodeHealth(hresp.StatusCode, hresp.Body)
}

// LocalTransport dispatches straight into an in-process http.Handler —
// a serve.Server handler — making a single-process multi-shard cluster
// possible for tests, benchmarks, and TestClusterSmoke. It
// goes through the same JSON wire format as HTTPTransport, so the two
// are interchangeable behind a Shard.
type LocalTransport struct {
	// Name labels the backend (Target).
	Name string
	// Handler answers /query and /healthz (serve.Server.Handler).
	Handler http.Handler
}

func (t *LocalTransport) Target() string { return t.Name }

func (t *LocalTransport) Send(ctx context.Context, req *Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	setTraceparent(ctx, hreq)
	rec := newRecorder()
	t.Handler.ServeHTTP(rec, hreq)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return decodeResponse(rec.status(), rec.hdr, &rec.body)
}

func (t *LocalTransport) Probe(ctx context.Context) (HealthReport, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return HealthReport{}, err
	}
	rec := newRecorder()
	t.Handler.ServeHTTP(rec, hreq)
	if err := ctx.Err(); err != nil {
		return HealthReport{}, err
	}
	return decodeHealth(rec.status(), &rec.body)
}

// recorder is the minimal in-memory http.ResponseWriter behind
// LocalTransport (net/http/httptest stays out of production code).
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// decodeResponse turns one HTTP answer into a Response. Non-200 bodies
// are a wire.Error, whose fields Response shares.
func decodeResponse(code int, hdr http.Header, body io.Reader) (*Response, error) {
	resp := &Response{StatusCode: code}
	if err := json.NewDecoder(body).Decode(resp); err != nil {
		return nil, fmt.Errorf("cluster: shard answered %d with undecodable body: %w", code, err)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > resp.RetryAfterS {
			resp.RetryAfterS = secs
		}
	}
	return resp, nil
}

// decodeHealth turns one /healthz answer into a HealthReport.
func decodeHealth(code int, body io.Reader) (HealthReport, error) {
	rep := HealthReport{StatusCode: code}
	if err := json.NewDecoder(body).Decode(&rep); err != nil {
		return HealthReport{}, fmt.Errorf("cluster: undecodable /healthz (%d): %w", code, err)
	}
	return rep, nil
}

// setTraceparent stamps the outgoing shard request with the sending
// span's trace context (the coordinator's per-attempt send span), so the
// shard's root span adopts the coordinator's trace ID and the two flight
// recorders can be joined on it. No span in ctx — tracing off, or a
// direct Shard use — stamps nothing.
func setTraceparent(ctx context.Context, hreq *http.Request) {
	if sp := obs.FromContext(ctx); sp != nil {
		hreq.Header.Set(obs.TraceHeader, sp.Context().Traceparent())
	}
}

// ms converts a duration for wire reports.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
