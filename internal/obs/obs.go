// Package obs is the engine's zero-dependency observability layer:
// lightweight spans with a flight-recorder ring (trace.go), hand-rolled
// Prometheus-text-format metrics (metrics.go), the counter table one
// server's /stats and /metrics both render (table.go), and a strict
// exposition parser used by the tests and the scrape smoke (expfmt.go).
//
// The package follows the same discipline as internal/fault: when
// tracing is disabled the entire span API costs one atomic load —
// Tracer.Start returns a nil *Span and every method on a nil span is a
// no-op — so instrumentation can stay threaded through the hot serving
// path unconditionally. Metrics instruments are plain atomics and are
// always on; the counter table is built at scrape time only.
//
// Cross-process propagation uses a `traceparent`-style header
// (00-<trace id>-<span id>-01): the cluster coordinator stamps each
// shard send with the send span's context, the shard adopts the trace
// ID and parents its spans under the coordinator's send span, and both
// sides keep the trace in their own ring — joined by the shared ID.
package obs

import "context"

type ctxKey struct{}

// With returns a context carrying the span, for handing the active
// span down the call stack (facade → engine → workers) without
// widening any signatures. A nil span returns ctx unchanged.
func With(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil when the context carries
// none (tracing disabled, or an uninstrumented caller).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
