package httpapi

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cs2p/internal/health"
	"cs2p/internal/obs"
)

// serverMetrics caches the HTTP-layer instruments. Route label cardinality
// is bounded by the route set (routeLabel: a request no route matched is
// "other"), and the steady-state request path touches only preallocated
// handles and two allocation-free map lookups — no string concatenation, no
// strconv, no registry lock.
type serverMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge
	panics   *obs.Counter
	// bytesIn/bytesOut count request/response payload bytes across all
	// routes; with the wire counters they answer "what did the binary
	// protocol save" straight from a scrape.
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	// batchOps is the per-request op-count distribution of /v2/batch.
	batchOps *obs.Histogram
	// wireReq counts serving-path requests by encoding: v1 JSON routes and
	// v2 binary routes each get an eagerly built {format,route} counter, so
	// the hot path is one read-only map lookup.
	wireReq map[string]*obs.Counter
	// streamFrames counts the frames served on /v2/stream in the same
	// family; the upgrade, a request like any other, is not one of them.
	streamFrames *obs.Counter

	mu      sync.RWMutex
	byRoute map[string]*routeStats
}

// routeStats is one route's lazily built (route,code) counters plus its
// latency histogram. codes is guarded by serverMetrics.mu.
type routeStats struct {
	latency *obs.Histogram
	codes   map[int]*obs.Counter
}

// wireFormats is the encoding each per-session serving route carries: the
// wire counters compare the two encodings of the same workload.
var wireFormats = map[string]string{
	"/v1/session/start": "json",
	"/v1/predict":       "json",
	"/v1/log":           "json",
	"/v2/observe":       "binary",
	"/v2/predict":       "binary",
	"/v2/batch":         "binary",
}

// batchOpsBuckets spans 1..MaxBatchOps in powers of two.
var batchOpsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// newServerMetrics binds the HTTP instruments on reg. A nil reg yields an
// inert value (nil handles, no-op request recording), so the server always
// holds a usable *serverMetrics.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return &serverMetrics{}
	}
	m := &serverMetrics{
		reg: reg,
		inFlight: reg.Gauge("cs2p_http_in_flight",
			"Requests currently being handled.", nil),
		panics: reg.Counter("cs2p_http_panics_total",
			"Handler panics absorbed by the recovery middleware.", nil),
		bytesIn: reg.Counter("cs2p_http_bytes_in_total",
			"Request body bytes received across all routes.", nil),
		bytesOut: reg.Counter("cs2p_http_bytes_out_total",
			"Response body bytes written across all routes.", nil),
		batchOps: reg.Histogram("cs2p_http_batch_ops",
			"Ops per /v2/batch request.", batchOpsBuckets, nil),
		wireReq: make(map[string]*obs.Counter),
		byRoute: make(map[string]*routeStats),
	}
	const wireHelp = "Serving-path requests by payload encoding and route."
	for route, format := range wireFormats {
		m.wireReq[route] = reg.Counter("cs2p_http_wire_requests_total", wireHelp,
			obs.Labels{"format": format, "route": route})
	}
	m.streamFrames = reg.Counter("cs2p_http_wire_requests_total", wireHelp,
		obs.Labels{"format": "binary", "route": streamPath})
	return m
}

// request records one completed request; inert when no registry is bound.
// The fast path (route and code already seen) is allocation-free.
func (m *serverMetrics) request(route string, code int, dur time.Duration, bytesIn, bytesOut int) {
	if m == nil || m.reg == nil {
		return
	}
	if bytesIn > 0 {
		m.bytesIn.Add(bytesIn)
	}
	if bytesOut > 0 {
		m.bytesOut.Add(bytesOut)
	}
	if c := m.wireReq[route]; c != nil {
		c.Inc()
	}
	m.mu.RLock()
	rs := m.byRoute[route]
	var c *obs.Counter
	if rs != nil {
		c = rs.codes[code]
	}
	m.mu.RUnlock()
	if c == nil {
		m.mu.Lock()
		rs = m.byRoute[route]
		if rs == nil {
			rs = &routeStats{
				latency: m.reg.Histogram("cs2p_http_request_seconds",
					"HTTP request handling latency by route.",
					obs.LatencyBuckets, obs.Labels{"route": route}),
				codes: make(map[int]*obs.Counter),
			}
			m.byRoute[route] = rs
		}
		if c = rs.codes[code]; c == nil {
			c = m.reg.Counter("cs2p_http_requests_total",
				"HTTP requests by route and status code.",
				obs.Labels{"route": route, "code": strconv.Itoa(code)})
			rs.codes[code] = c
		}
		m.mu.Unlock()
	}
	c.Inc()
	rs.latency.Observe(dur.Seconds())
}

// clientMetrics mirrors ResilienceStats onto a registry so a fleet of
// players can be scraped live instead of polled via Stats(). The zero value
// (no registry) is inert: every handle is nil and obs instruments no-op on
// nil receivers.
type clientMetrics struct {
	reg            *obs.Registry
	observations   *obs.Counter
	remoteOK       *obs.Counter
	remoteFailures *obs.Counter
	retries        *obs.Counter
	rereg          *obs.Counter
	localFallbacks *obs.Counter
	nanPreds       *obs.Counter
	fastFails      *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	if reg == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		reg: reg,
		observations: reg.Counter("cs2p_client_observations_total",
			"Observe calls issued by resilient predictors (one per chunk).", nil),
		remoteOK: reg.Counter("cs2p_client_remote_ok_total",
			"Observations answered by the remote prediction service.", nil),
		remoteFailures: reg.Counter("cs2p_client_remote_failures_total",
			"Failed remote observe round trips.", nil),
		retries: reg.Counter("cs2p_client_retries_total",
			"Extra attempts spent on idempotent calls.", nil),
		rereg: reg.Counter("cs2p_client_reregistrations_total",
			"Session resyncs (state push, or a fresh start) after a desync.", nil),
		localFallbacks: reg.Counter("cs2p_client_local_fallbacks_total",
			"Predictions served by the local decentralized model (§5.3).", nil),
		nanPreds: reg.Counter("cs2p_client_nan_predictions_total",
			"Observations that left no usable prediction (remote down, no local model).", nil),
		fastFails: reg.Counter("cs2p_client_breaker_fast_fails_total",
			"Calls skipped because the circuit breaker was open.", nil),
	}
}

// breakerTransition counts a circuit state change. Transitions are rare
// (they bracket outages), so the registry lookup per event is fine.
func (m *clientMetrics) breakerTransition(from, to health.State) {
	if m.reg == nil {
		return
	}
	m.reg.Counter("cs2p_client_breaker_transitions_total",
		"Circuit breaker state transitions.",
		obs.Labels{"from": breakerStates[from], "to": breakerStates[to]}).Inc()
}

// breakerStates names the breaker's three machine states the circuit way.
var breakerStates = map[health.State]string{health.Healthy: "closed", health.Down: "open", health.Recovering: "half-open"}

// routeLabel is the route label of a served request: the path of the
// pattern it matched (Request.Pattern, set by the fixed-path index or the
// ServeMux), so a session's state is labelled /v1/session/{id}/state and no
// id becomes a label value; "other" when no route matched — a 404, a 405.
func routeLabel(pattern string) string {
	if pattern == "" {
		return "other"
	}
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// statusWriter captures the response status and body size for the request
// metrics. Instances are pooled: the fast-path middleware serves the steady
// state without allocating one per request.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
	wrote bool
}

var statusWriterPool = sync.Pool{New: func() any { return &statusWriter{} }}

func (w *statusWriter) reset(rw http.ResponseWriter) {
	w.ResponseWriter = rw
	w.code = http.StatusOK
	w.bytes = 0
	w.wrote = false
}

// Unwrap lets http.ResponseController (and boundBodyRead) reach the
// connection's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// observeMiddleware is the outermost layer: it counts in-flight and completed
// requests with latency and payload sizes by route, and echoes a
// client-supplied request id. With tracing off — the steady state — it mints
// no request id and allocates no Trace: ids nobody will join against and
// stage timings nobody will log are pure hot-path overhead, measured at
// roughly a third of the middleware's allocation bill. SetTraceRequests(true)
// has every request assigned an id, a Trace threaded through its context for
// per-stage marks, and the structured summary logged on completion.
func (s *Server) observeMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(obs.RequestIDHeader)
		if len(rid) > 64 {
			rid = ""
		}
		var tr *obs.Trace
		traced := r
		if s.traceRequests {
			if rid == "" {
				rid = obs.NewRequestID()
			}
			tr = obs.NewTrace(rid)
			traced = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		if rid != "" {
			w.Header().Set(obs.RequestIDHeader, rid)
		}
		sw := statusWriterPool.Get().(*statusWriter)
		sw.reset(w)
		start := time.Now()
		s.sm.inFlight.Add(1)
		defer func() {
			s.sm.inFlight.Add(-1)
			route := routeLabel(traced.Pattern) // dispatch set it
			s.sm.request(route, sw.code, time.Since(start), int(max(r.ContentLength, 0)), sw.bytes)
			if tr != nil {
				s.logf("httpapi: %s %s status=%d %s", r.Method, route, sw.code, tr.Summary())
			}
			sw.ResponseWriter = nil
			statusWriterPool.Put(sw)
		}()
		next.ServeHTTP(sw, traced)
	})
}
