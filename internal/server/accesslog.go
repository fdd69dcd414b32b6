package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathenum/internal/obs"
)

// accessRecord is the per-request log line. Plan and Paths are handler
// annotations (set via annotate after the run settles); the middleware
// fills the rest.
type accessRecord struct {
	ID     string  `json:"id"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Status int     `json:"status"`
	Millis float64 `json:"ms"`
	Plan   string  `json:"plan,omitempty"`
	Paths  uint64  `json:"paths,omitempty"`
}

// accessLogger serializes JSON-line writes to the configured sink.
type accessLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newAccessLogger(w io.Writer) *accessLogger {
	return &accessLogger{enc: json.NewEncoder(w)}
}

func (l *accessLogger) write(rec *accessRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.enc.Encode(rec)
}

// recKey carries the request's accessRecord through the context so
// handlers can annotate it.
type recKey struct{}

// annotate attaches the settled run's plan and delivered path count to
// the request's access-log line. A no-op when logging is disabled.
func annotate(r *http.Request, plan string, paths uint64) {
	if rec, ok := r.Context().Value(recKey{}).(*accessRecord); ok {
		rec.Plan = plan
		rec.Paths = paths
	}
}

// httpMetrics holds the HTTP layer's series, registered on the engine's
// registry so one scrape covers both layers. Per-handler duration
// histograms are pre-resolved; the requests-by-status counter resolves
// per request (registration is idempotent and off the enumerate path).
type httpMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge
	duration map[string]*obs.Histogram
	// oracleShed counts /readyz responses shed because the oracle
	// rebuild lag crossed Config.ShedOracleLag.
	oracleShed *obs.Counter
}

// handlerNames is the fixed label set of the HTTP series — one per
// route, resolved at registration so scrapes show every handler at 0
// before its first request.
var handlerNames = []string{"query", "paths", "batch", "insert", "flush", "healthz", "readyz", "stats", "metrics"}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{
		reg:      reg,
		inflight: reg.Gauge("pathenum_http_inflight_requests", "HTTP requests currently being served."),
		duration: make(map[string]*obs.Histogram, len(handlerNames)),
		oracleShed: reg.Counter("pathenum_oracle_lag_shed_total",
			"Readiness probes shed because oracle rebuild lag crossed the threshold."),
	}
	for _, h := range handlerNames {
		m.duration[h] = reg.Histogram(obs.L("pathenum_http_request_duration_seconds", "handler", h),
			"HTTP request latency, by handler.")
	}
	return m
}

func (m *httpMetrics) observe(handler string, status int, elapsed time.Duration) {
	m.duration[handler].Observe(elapsed)
	m.reg.Counter(obs.L("pathenum_http_requests_total", "handler", handler, "code", strconv.Itoa(status)),
		"HTTP requests served, by handler and status code.").Inc()
}

// statusRecorder captures the response status for the log line and the
// metrics, passing Flush through so the NDJSON endpoints' line writer
// can push lines to the client mid-response.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqSeq numbers requests process-wide for the access log.
var reqSeq atomic.Uint64

// observe wraps a handler in the access-log and HTTP-metrics
// middleware: request id, per-handler latency histogram,
// requests-by-status counter, in-flight gauge, and (when configured)
// one structured log line per request.
func (s *Server) observe(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		rec := &accessRecord{Method: r.Method, Path: r.URL.Path}
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if s.log != nil {
			rec.ID = "req-" + strconv.FormatUint(reqSeq.Add(1), 10)
			r = r.WithContext(context.WithValue(r.Context(), recKey{}, rec))
		}
		h(sw, r)
		elapsed := time.Since(start)
		s.metrics.observe(name, sw.status, elapsed)
		if s.log != nil {
			rec.Status = sw.status
			rec.Millis = float64(elapsed) / float64(time.Millisecond)
			s.log.write(rec)
		}
	}
}
