// Package httpapi implements the wire protocol of the paper's prototype
// (§6): a Node.js-style HTTP prediction service, here built on net/http.
// Before each chunk request the player POSTs the previous epoch's measured
// throughput and receives the next prediction in-band; when playback ends it
// POSTs a QoE log. Clients that prefer the decentralized deployment fetch
// their cluster's model once and predict locally.
//
// Endpoints:
//
//	POST /v1/session/start  {session_id, features, start_unix}
//	POST /v1/predict        {session_id, observed_mbps, horizon}
//	POST /v1/log            {session_id, qoe, ...}
//	POST /v1/ingest         {sessions: [{session_id, features, throughput_mbps}]}
//	GET  /v1/model          ?ip=&isp=&as=&province=&city=&server=
//	GET  /v1/healthz
//
// The handler stack is hardened for unattended operation: panics are
// recovered into 500s, request bodies are size-capped and must arrive within
// the request timeout, inputs are validated before they can corrupt session
// state, and Run drains in-flight requests on shutdown.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// StartRequest opens a session.
type StartRequest struct {
	SessionID string         `json:"session_id"`
	Features  trace.Features `json:"features"`
	StartUnix int64          `json:"start_unix"`
}

// PredictRequest asks for a prediction, optionally reporting the last
// epoch's measured throughput first. A null/absent observed_mbps queries
// the current prediction without updating session state (used for
// multi-horizon lookups). Horizon defaults to 1.
type PredictRequest struct {
	SessionID    string   `json:"session_id"`
	ObservedMbps *float64 `json:"observed_mbps"`
	Horizon      int      `json:"horizon,omitempty"`
}

// PredictResponse carries the prediction.
type PredictResponse struct {
	PredictionMbps float64 `json:"prediction_mbps"`
}

// ErrorBody is the JSON error envelope of every v1 route (the router's admin
// routes reuse it).
type ErrorBody struct {
	Error string `json:"error"`
}

// IngestSession is one externally collected completed session: the player
// (or a log shipper) observed this throughput series; the engine never
// served it. Epoch spacing is the backend's configured epoch length.
type IngestSession struct {
	SessionID      string         `json:"session_id"`
	StartUnix      int64          `json:"start_unix"`
	Features       trace.Features `json:"features"`
	ThroughputMbps []float64      `json:"throughput_mbps"`
}

// IngestRequest is the POST /v1/ingest payload.
type IngestRequest struct {
	Sessions []IngestSession `json:"sessions"`
}

// IngestResponse reports intake accounting; on backpressure (429) it carries
// the partial accounting alongside the error.
type IngestResponse struct {
	engine.IngestResult
	Error string `json:"error,omitempty"`
}

// HealthzResponse is the readiness payload of GET /v1/healthz. Status is
// HealthzOK (200) once a model is installed and HealthzNoModel (503) before —
// the liveness/readiness split: the process answers, but must not receive
// prediction traffic yet. ModelVersion and Generation let a router detect
// model skew across replicas without fetching the model itself. The bare
// liveness probe stays at /healthz on the debug mux.
type HealthzResponse struct {
	Status       string  `json:"status"`
	ModelVersion uint64  `json:"model_version"`
	Generation   uint64  `json:"generation"`
	Sessions     int     `json:"sessions"`
	UptimeS      float64 `json:"uptime_s"`
	// TrainedAtUnix is when the serving model was trained (0 = unknown);
	// routers turn it into the cs2p_model_age_seconds staleness gauge.
	TrainedAtUnix int64 `json:"trained_at_unix,omitempty"`
}

// Healthz status strings.
const (
	HealthzOK      = "ok"
	HealthzNoModel = "no_model"
	// HealthzDraining: the replica is ready but administratively leaving —
	// existing sessions still served (Sessions is the remaining count), no
	// new ones should be placed here. Still a 200: a draining replica is
	// alive and mid-handoff, and killing it early loses warm filter state.
	HealthzDraining = "draining"
)

// HealthReporter is the optional backend surface behind the readiness
// endpoint. *engine.Service implements it; backends that don't are treated
// as always ready (their healthz reports liveness only).
type HealthReporter interface {
	Health() engine.HealthStatus
}

// Input bounds of the wire contract: properties of the paper's per-chunk
// protocol, not deployment choices. Session ids are bounded by
// wire.DefaultLimits().MaxSessionIDLen, shared with the binary decoders.
const (
	// MaxHorizon rejects absurd prediction horizons with 400. The paper
	// evaluates horizons up to 10; anything beyond a full video is a bug
	// or an attack on the k-step transition loop.
	MaxHorizon = 512
	// MaxObservedMbps rejects physically implausible throughput reports
	// that would otherwise distort the session's HMM posterior.
	MaxObservedMbps = 1e5 // 100 Gbps
	// MaxFeatureLen bounds each session feature string. Features key the
	// cluster lookup and are stored for the session's lifetime; fuzzing
	// found that start requests accepted megabyte feature values up to the
	// body cap.
	MaxFeatureLen = 256
	// MaxIngestSessions caps the session count in one /v1/ingest request.
	MaxIngestSessions = 256
	// MaxIngestEpochs caps one ingested session's throughput series length.
	MaxIngestEpochs = 2048
)

// ServerConfig holds the hardening limits a deployment sets (cs2p-server's
// -max-body, -request-timeout and -max-batch-ops); the input bounds above
// are fixed.
type ServerConfig struct {
	// MaxBodyBytes caps request bodies (413 beyond it).
	MaxBodyBytes int64
	// RequestTimeout bounds how long any request's body may take to arrive
	// (the connection is dropped beyond it). 0 disables it.
	RequestTimeout time.Duration
	// MaxBatchOps caps the op count in one /v2/batch frame.
	MaxBatchOps int
}

// DefaultServerConfig returns production-shaped limits. The body and batch
// caps are the binary decoders' own (wire.DefaultLimits), so both protocols
// start from one set.
func DefaultServerConfig() ServerConfig {
	lim := wire.DefaultLimits()
	return ServerConfig{
		MaxBodyBytes:   int64(lim.MaxFrameBytes), // 1 MiB; requests are a few hundred bytes
		RequestTimeout: 15 * time.Second,
		MaxBatchOps:    lim.MaxBatchOps,
	}
}

// SessionService is the engine-side surface the HTTP handlers drive: the
// session lifecycle plus the per-chunk prediction round trip. The concrete
// *engine.Service implements it; the handlers deliberately program against
// this interface so an alternate backend (a remote shard router, a
// replaying fake) drops in without touching the transport. Every per-chunk
// route — JSON and binary alike — is served through the embedded
// BatchService; ObserveAndPredict and Predict are the same op in one-call
// form for callers that hold a backend directly.
type SessionService interface {
	BatchService
	StartSession(id string, f trace.Features, startUnix int64) engine.StartResponse
	ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error)
	Predict(id string, horizon int) (float64, error)
	EndSession(lg engine.SessionLog)
}

// StartService is the optional fallible variant of StartSession. A local
// engine cannot fail to start a session, but a routing tier can (every
// replica down), and silently answering a zero StartResponse would hand the
// player a zero initial prediction. Backends implementing this get their
// start errors mapped onto HTTP statuses.
type StartService interface {
	Start(id string, f trace.Features, startUnix int64) (engine.StartResponse, error)
}

// IngestService is the optional streaming trace-intake surface behind
// POST /v1/ingest. *engine.Service implements it when EnableOnline has been
// called; backends without it answer 501.
type IngestService interface {
	Ingest(sessions []*trace.Session) (engine.IngestResult, error)
}

// SessionStateService is the optional replica-side session-transfer surface
// behind GET/PUT/DELETE /v1/session/{id}/state: export a live session's
// exact state, install one from its state (refusing model mismatches), and
// forget a session without a QoE log after its state has moved.
// *engine.Service implements it; backends without it answer 501.
type SessionStateService interface {
	SessionImporter
	ExportSession(id string) (engine.SessionState, error)
	ForgetSession(id string) bool
}

// SessionImporter is the PUT third of it — how every tier rebuilds a session,
// so *router.Router implements it too and players can resync through one.
type SessionImporter interface {
	ImportSession(st engine.SessionState) error
}

// DrainControl is the optional administrative drain surface behind
// POST /v1/admin/drain: flipping it makes /v1/healthz report "draining" so
// load balancers and the router agree the replica is leaving.
// *engine.Service implements it.
type DrainControl interface {
	SetDraining(on bool)
	Draining() bool
}

// ModelProvider exposes the model plane: an immutable snapshot pairing the
// serving engine with the version and generation /v1/model reports for it.
type ModelProvider interface {
	Snapshot() *engine.ModelSnapshot
}

// ModelAdmin is the read-mostly model-lifecycle surface served under
// /v1/admin: list published versions (with the active one marked) and roll
// back to the previously served snapshot. engine.RegistryAdmin implements it.
type ModelAdmin interface {
	ListModelVersions() ([]engine.ModelVersionInfo, error)
	ActiveVersion() uint64
	Rollback() (uint64, error)
}

// Server exposes a SessionService over HTTP.
type Server struct {
	svc SessionService
	// models supplies pinned (engine, generation) snapshots for the model
	// export path; nil when the backend has no model plane.
	models ModelProvider
	cfg    ServerConfig
	// serveModel enables GET /v1/model.
	serveModel bool
	// admin, when set, enables the /v1/admin endpoints (501 otherwise).
	admin  ModelAdmin
	logf   func(format string, args ...any)
	panics atomic.Int64
	// sm caches the attached registry's HTTP instruments (inert without
	// one) and is never nil. traceRequests turns on the per-request
	// stage-timing log line.
	sm            *serverMetrics
	traceRequests bool
	// health feeds the readiness endpoint (nil = liveness only); start
	// anchors the uptime it reports.
	health HealthReporter
	start  time.Time
	// starter, when the backend implements StartService, lets session
	// start report failure.
	starter StartService
	// ingest is the backend's trace-intake surface (type-asserted in
	// NewServer); nil answers POST /v1/ingest with 501.
	ingest IngestService
	// sessionState is the session-transfer surface (type-asserted in
	// NewServer); nil answers GET and DELETE /v1/session/{id}/state with 501.
	sessionState SessionStateService
	// drain is the administrative drain flag (type-asserted in NewServer);
	// nil answers POST /v1/admin/drain with 501.
	drain DrainControl
	// routes is every route the server serves, keyed by its ServeMux
	// pattern: the built-ins from NewServer, plus whatever Handle and
	// SetMetrics add. Handler builds both of its lookups from it.
	routes map[string]http.Handler
	// stack is the http.Handler that Handler built last, which a stream's
	// MsgCall frames run through.
	stack atomic.Value
	// streams are the open /v2/stream connections, which Run ends itself
	// (streamsShut) and waits for (streamWG) on shutdown.
	streamMu    sync.Mutex
	streams     map[net.Conn]struct{}
	streamsShut atomic.Bool
	streamWG    sync.WaitGroup
}

// NewServer builds the HTTP facade. A non-nil exporter enables GET /v1/model,
// which answers from the store of the snapshot being served; pass
// (*core.Engine).Store, or nil for a backend with no model to hand out (the
// router). Leftover: an engine has exactly one store, so the parameter is an
// on/off switch spelled as a function and is only tested against nil;
// benchmark/ is frozen for this PR and calls NewServer(svc, nil), so the
// signature stays until the next benchmark PR. When svc also implements
// ModelProvider (as *engine.Service does), it feeds those snapshots;
// otherwise the endpoint answers 501.
func NewServer(svc SessionService, exporter func(*core.Engine) *core.ModelStore) *Server {
	s := &Server{svc: svc, cfg: DefaultServerConfig(), serveModel: exporter != nil, logf: log.Printf, sm: newServerMetrics(nil), start: time.Now(),
		streams: make(map[net.Conn]struct{})}
	s.routes = map[string]http.Handler{
		"POST /v1/session/start":        http.HandlerFunc(s.handleStart),
		"POST /v1/predict":              http.HandlerFunc(s.handlePredict),
		"POST /v1/log":                  http.HandlerFunc(s.handleLog),
		"POST /v1/ingest":               http.HandlerFunc(s.handleIngest),
		"GET /v1/model":                 http.HandlerFunc(s.handleModel),
		"GET /v1/session/{id}/state":    http.HandlerFunc(s.handleSessionStateGet),
		"PUT /v1/session/{id}/state":    http.HandlerFunc(s.handleSessionStatePut),
		"DELETE /v1/session/{id}/state": http.HandlerFunc(s.handleSessionStateDelete),
		"GET /v1/admin/models":          http.HandlerFunc(s.handleAdminModels),
		"POST /v1/admin/rollback":       http.HandlerFunc(s.handleAdminRollback),
		"POST /v1/admin/drain":          http.HandlerFunc(s.handleAdminDrain),
		"GET /v1/healthz":               http.HandlerFunc(s.handleHealthz),
		"POST /v2/observe":              s.wireRoute(s.wireOp(true)),
		"POST /v2/predict":              s.wireRoute(s.wireOp(false)),
		"POST /v2/batch":                s.wireRoute(s.handleWireBatch),
		"GET " + streamPath:             http.HandlerFunc(s.handleStream),
		"/v2/":                          http.HandlerFunc(s.handleWireRefusal),
	}
	if mp, ok := svc.(ModelProvider); ok {
		s.models = mp
	}
	if hr, ok := svc.(HealthReporter); ok {
		s.health = hr
	}
	if st, ok := svc.(StartService); ok {
		s.starter = st
	}
	if ig, ok := svc.(IngestService); ok {
		s.ingest = ig
	}
	if ss, ok := svc.(SessionStateService); ok {
		s.sessionState = ss
	}
	if dc, ok := svc.(DrainControl); ok {
		s.drain = dc
	}
	return s
}

// Handle adds a route, or replaces the built-in one under the same pattern
// (call before Handler). The pattern uses net/http's enhanced syntax
// ("POST /v1/x"). The handler runs in the same stack as every built-in route
// — recovery, metrics, the body read deadline — and reads its body through
// DecodeJSON. The router mounts its membership admin endpoints and its
// GET /v1/model proxy this way.
func (s *Server) Handle(pattern string, h http.Handler) { s.routes[pattern] = h }

// SetAdmin enables the /v1/admin model-lifecycle endpoints (call before
// Handler). Without it they answer 501.
func (s *Server) SetAdmin(a ModelAdmin) { s.admin = a }

// SetLogf overrides the server's logger (tests silence it).
func (s *Server) SetLogf(f func(string, ...any)) { s.logf = f }

// SetMetrics attaches a metrics registry: requests are counted and timed by
// route and status, in-flight requests gauged, panics counted, and the
// registry itself served at GET /metrics. Call before Handler. The same
// registry is typically shared with engine.Service.SetMetrics so one scrape
// shows the whole serving stack.
func (s *Server) SetMetrics(reg *obs.Registry) {
	s.sm = newServerMetrics(reg)
	if reg != nil {
		s.routes["GET /metrics"] = reg.Handler()
	}
}

// SetTraceRequests toggles the structured per-request trace: each request
// gets a request id (minted, or adopted from the client's
// X-Cs2p-Request-Id), handlers record stage timings, and a summary line
// goes through the server's logger on completion.
func (s *Server) SetTraceRequests(on bool) { s.traceRequests = on }

// SetConfig replaces the hardening limits (call before Handler). A zero
// body or batch cap takes the default.
func (s *Server) SetConfig(cfg ServerConfig) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultServerConfig().MaxBodyBytes
	}
	if cfg.MaxBatchOps <= 0 {
		cfg.MaxBatchOps = DefaultServerConfig().MaxBatchOps
	}
	s.cfg = cfg
}

// PanicCount reports how many handler panics the recovery middleware
// absorbed — the chaos harness asserts it stays zero.
func (s *Server) PanicCount() int64 { return s.panics.Load() }

// routeKey is a fixed route's method and path, the fixed-path index's key.
type routeKey struct{ method, path string }

// indexedRoute is a fixed route's pattern (what Request.Pattern reports) and
// handler.
type indexedRoute struct {
	pattern string
	h       http.Handler
}

// Handler returns the hardened stack, one for every route: recovery and
// request metrics wrap everything, and a request with a body gets a read
// deadline of RequestTimeout on its connection, which readBody or
// readWireFrame lifts once the body is in. Dispatch then looks the exact
// method and path up in an index of the fixed-path routes and serves a hit on
// the connection's own goroutine; the ServeMux behind it — the same routes —
// takes the {id} patterns, HEAD, and the 404s and 405s. Both are built here
// from s.routes. The index exists because the mux's pattern matching costs
// 160–243 ns a request against 13–15 ns for the map lookup, on the per-chunk
// routes that run once per chunk.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	index := make(map[routeKey]indexedRoute, len(s.routes))
	for pattern, h := range s.routes {
		mux.Handle(pattern, h)
		if method, path, ok := strings.Cut(pattern, " "); ok && !strings.Contains(path, "{") && !strings.HasSuffix(path, "/") {
			index[routeKey{method, path}] = indexedRoute{pattern, h}
		}
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != 0 {
			s.boundBodyRead(w, true)
		}
		if rt, ok := index[routeKey{r.Method, r.URL.Path}]; ok {
			r.Pattern = rt.pattern
			rt.h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
	stack := s.observeMiddleware(s.recoverMiddleware(h))
	s.stack.Store(stack)
	return stack
}

// DecodeJSON reads a request body and decodes it as exactly one JSON document
// of v's shape, answering 413 or 400 otherwise; it reports whether it did.
// Routes added with Handle read their bodies through it, under the server's
// one body cap.
func (s *Server) DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	return s.readBody(w, r, sc) && unmarshalJSON(w, sc.body, v)
}

// unmarshalJSON is json.Unmarshal or a 400. Not a Decoder: that stops after
// the first value, and its More() reads a stray '}' or ']' as the end of
// input, which let `{"session_id":"a"}}` through.
func unmarshalJSON(w http.ResponseWriter, body []byte, v any) bool {
	err := json.Unmarshal(body, v)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "malformed JSON: " + err.Error()})
	}
	return err == nil
}

// errTooLarge is readCapped giving up.
var errTooLarge = errors.New("body too large")

// readCapped is io.ReadAll into buf[:0] that gives up, with errTooLarge, once
// more than max bytes have arrived. Both ends use it: the server on request
// bodies, the client on replies.
func readCapped(r io.Reader, buf []byte, max int64) ([]byte, error) {
	b, err := buf[:0], error(nil)
	for err == nil && int64(len(b)) <= max {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		var n int
		n, err = r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	switch {
	case int64(len(b)) > max:
		return b, errTooLarge
	case err == io.EOF:
		return b, nil
	}
	return b, err
}

// readBody reads the whole request body into sc.body, at most MaxBodyBytes
// of it — the server's one body cap — and lifts the read deadline Handler
// armed. On failure it has answered — 413, or 400 for a body that ended early
// or stalled — and leaves the deadline armed: net/http drains what is left of
// the body after the handler, and that read needs the bound too.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *opScratch) bool {
	var err error
	if sc.body, err = readCapped(r.Body, sc.body, s.cfg.MaxBodyBytes); err == nil {
		s.boundBodyRead(w, false)
		return true
	}
	if err == errTooLarge {
		w.Header().Set("Connection", "close") // the unread rest is not a request
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{Error: "request body too large"})
	} else {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "reading request body: " + err.Error()})
	}
	return false
}

// validSessionID rejects empty or absurdly long session identifiers.
func (s *Server) validSessionID(w http.ResponseWriter, idLen int) bool {
	if idLen == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "session_id required"})
		return false
	}
	if limit := wire.DefaultLimits().MaxSessionIDLen; idLen > limit {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("session_id exceeds %d bytes", limit)})
		return false
	}
	return true
}

// validFeatures bounds each feature string: they key the cluster lookup and
// live as long as the session, so an attacker-sized value is held memory.
func (s *Server) validFeatures(w http.ResponseWriter, f trace.Features) bool {
	for _, v := range []string{f.ClientIP, f.ISP, f.AS, f.Province, f.City, f.Server} {
		if len(v) > MaxFeatureLen {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("feature value exceeds %d bytes", MaxFeatureLen)})
			return false
		}
	}
	return true
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	if !s.readBody(w, r, sc) {
		return
	}
	req, ok := scanStartRequest(sc.body)
	if !ok {
		var declined StartRequest // its own variable: req must not escape on the scanned path
		if !unmarshalJSON(w, sc.body, &declined) {
			return
		}
		req = declined
	}
	tr.Mark("decode")
	if !s.validSessionID(w, len(req.SessionID)) {
		return
	}
	if !s.validFeatures(w, req.Features) {
		return
	}
	tr.Mark("validate")
	var resp engine.StartResponse
	if s.starter != nil {
		var err error
		resp, err = s.starter.Start(req.SessionID, req.Features, req.StartUnix)
		if err != nil {
			WriteJSON(w, backendStatus(err, http.StatusBadGateway), ErrorBody{Error: err.Error()})
			return
		}
	} else {
		resp = s.svc.StartSession(req.SessionID, req.Features, req.StartUnix)
	}
	tr.Mark("start")
	if sc.out, ok = appendStartResponse(sc.out[:0], resp); !ok {
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	writeJSONDoc(w, sc.out)
}

// backendStatus maps a backend error onto an HTTP status: lost sessions are
// 404, a remote backend's own 4xx rejection passes through, any other
// remote failure is a 502 (this tier is fine, the one behind it is not),
// and everything else gets the caller's fallback.
func backendStatus(err error, fallback int) int {
	if errors.Is(err, engine.ErrUnknownSession) {
		return http.StatusNotFound
	}
	if st := HTTPStatus(err); st != 0 {
		if st/100 == 4 {
			return st
		}
		return http.StatusBadGateway
	}
	return fallback
}

// handlePredict is the JSON codec of the per-chunk op pipeline (ops.go): it
// decodes one op, and everything after — range checks, backend call, status
// mapping — is the code the binary routes run.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	if !s.readBody(w, r, sc) {
		return
	}
	op, ok := scanPredictRequest(sc.body)
	if !ok {
		var req PredictRequest
		if !unmarshalJSON(w, sc.body, &req) {
			return
		}
		op = wire.Op{SessionID: []byte(req.SessionID), Horizon: req.Horizon}
		if req.ObservedMbps != nil {
			op.ObservedMbps, op.HasObserve = *req.ObservedMbps, true
		}
	}
	tr.Mark("decode")
	if !s.validSessionID(w, len(op.SessionID)) {
		return
	}
	pred, status, msg := s.serveOne(sc, op)
	tr.Mark("predict")
	if status != http.StatusOK {
		WriteJSON(w, status, ErrorBody{Error: msg})
		return
	}
	if sc.out, ok = appendPredictResponse(sc.out[:0], pred); !ok {
		WriteJSON(w, http.StatusOK, PredictResponse{PredictionMbps: pred})
		return
	}
	writeJSONDoc(w, sc.out)
}

// handleIngest accepts a batch of externally collected completed sessions
// into the backend's trace intake. Validation mirrors the prediction path
// (bounded identifiers, features, and finite throughput) because ingested
// series feed the incremental trainer directly: a NaN epoch here would
// surface as a NaN emission in a candidate model. Backpressure is 429 with
// partial accounting — the ring is churning faster than retraining drains
// it, and the shipper should back off, not enlarge the request.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "trace intake not enabled"})
		return
	}
	var req IngestRequest
	if !s.DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Sessions) == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "sessions required"})
		return
	}
	if len(req.Sessions) > MaxIngestSessions {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("at most %d sessions per request", MaxIngestSessions)})
		return
	}
	batch := make([]*trace.Session, 0, len(req.Sessions))
	for i, in := range req.Sessions {
		if !s.validSessionID(w, len(in.SessionID)) || !s.validFeatures(w, in.Features) {
			return
		}
		if len(in.ThroughputMbps) == 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("session %d: throughput_mbps required", i)})
			return
		}
		if len(in.ThroughputMbps) > MaxIngestEpochs {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("session %d: throughput_mbps exceeds %d epochs", i, MaxIngestEpochs)})
			return
		}
		if slices.ContainsFunc(in.ThroughputMbps, badMbps) {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("session %d: throughput values must be finite and in [0, %g]", i, MaxObservedMbps)})
			return
		}
		batch = append(batch, &trace.Session{
			ID:         in.SessionID,
			StartUnix:  in.StartUnix,
			Features:   in.Features,
			Throughput: in.ThroughputMbps,
		})
	}
	res, err := s.ingest.Ingest(batch)
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrOnlineDisabled):
			WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: err.Error()})
		case errors.Is(err, engine.ErrIngestBackpressure):
			WriteJSON(w, http.StatusTooManyRequests, IngestResponse{IngestResult: res, Error: err.Error()})
		default:
			WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
		}
		return
	}
	WriteJSON(w, http.StatusOK, IngestResponse{IngestResult: res})
}

// handleHealthz serves the readiness probe. Liveness (the process answers)
// is the 200/503 split's floor; readiness additionally requires an installed
// model, because a replica booted against an empty registry or awaiting its
// first artifact would answer every prediction with an error. Routers use
// the 503 to keep such a replica out of rotation without marking it dead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthzResponse{Status: HealthzOK, UptimeS: time.Since(s.start).Seconds()}
	if s.health != nil {
		h := s.health.Health()
		resp.ModelVersion = h.ModelVersion
		resp.Generation = h.Generation
		resp.Sessions = h.Sessions
		resp.TrainedAtUnix = h.TrainedAtUnix
		if !h.Ready {
			resp.Status = HealthzNoModel
			WriteJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
		if h.Draining {
			// Ready but leaving: Sessions above is the remaining count a
			// drain watcher polls toward zero.
			resp.Status = HealthzDraining
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	var lg engine.SessionLog
	if !s.DecodeJSON(w, r, &lg) {
		return
	}
	if !s.validSessionID(w, len(lg.SessionID)) {
		return
	}
	s.svc.EndSession(lg)
	w.WriteHeader(http.StatusNoContent)
}

// modelETag derives the strong ETag for /v1/model from the snapshot: keyed
// by artifact version when the model came from the registry (stable across
// server restarts serving the same artifact — and after a rollback the old
// version's ETag returns, so a client that cached it revalidates straight to
// 304), falling back to the in-process generation counter.
func modelETag(snap *engine.ModelSnapshot) string {
	if v := snap.Version(); v != 0 {
		return fmt.Sprintf(`"cs2p-model-v%d"`, v)
	}
	return fmt.Sprintf(`"cs2p-model-g%d"`, snap.Generation())
}

// etagMatches implements the If-None-Match comparison (strong ETags, comma
// list, `*` wildcard).
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// handleModel serves the per-cluster model for the requesting client's
// features — the decentralized deployment path (§5.3). The response carries
// a version-derived ETag; a client presenting it back via If-None-Match gets
// 304 without anything being serialized, so model polling between publishes
// costs a header exchange. Engine, version and generation come from one
// pinned snapshot, so a swap mid-request cannot mislabel the model.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if !s.serveModel || s.models == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "model export not enabled"})
		return
	}
	snap := s.models.Snapshot()
	etag := modelETag(snap)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	q := r.URL.Query()
	f := trace.Features{
		ClientIP: q.Get("ip"),
		ISP:      q.Get("isp"),
		AS:       q.Get("as"),
		Province: q.Get("province"),
		City:     q.Get("city"),
		Server:   q.Get("server"),
	}
	sm, id := snap.Engine().Store().Lookup(f)
	WriteJSON(w, http.StatusOK, map[string]any{
		"cluster_id":       id,
		"model":            sm.Model,
		"initial_median":   sm.InitialMedian,
		"model_version":    snap.Version(),
		"model_generation": snap.Generation(),
	})
}

// handleAdminModels lists the registry's published versions with the active
// one marked — the operator's first stop when prediction quality shifts.
func (s *Server) handleAdminModels(w http.ResponseWriter, _ *http.Request) {
	if s.admin == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "model admin not enabled"})
		return
	}
	versions, err := s.admin.ListModelVersions()
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
		return
	}
	if versions == nil {
		versions = []engine.ModelVersionInfo{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"active_version": s.admin.ActiveVersion(),
		"versions":       versions,
	})
}

// handleAdminRollback swaps back to the previously served snapshot. 409 when
// there is nothing to roll back to.
func (s *Server) handleAdminRollback(w http.ResponseWriter, _ *http.Request) {
	if s.admin == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "model admin not enabled"})
		return
	}
	v, err := s.admin.Rollback()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrNoPreviousModel) {
			status = http.StatusConflict
		}
		WriteJSON(w, status, ErrorBody{Error: err.Error()})
		return
	}
	s.logf("httpapi: rolled back to model version %d", v)
	WriteJSON(w, http.StatusOK, map[string]any{"active_version": v})
}

// jsonContentType and wireContentType are the Content-Type values of every
// JSON and binary message either end sends, shared: a header value is read,
// never written through.
var (
	jsonContentType = []string{"application/json"}
	wireContentType = []string{wire.ContentType}
)

// writeJSONDoc answers 200 with an already encoded document.
func writeJSONDoc(w http.ResponseWriter, doc []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(doc)
}

// WriteJSON answers with status and v as a JSON document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; nothing useful to do.
		_ = err
	}
}

// Run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes immediately (new connections refused) while in-flight
// predict/start/log requests get up to grace to finish, so a deploy or
// SIGTERM never truncates a player's round trip mid-write. Open streams are
// closed last, each after the reply to any frame it is serving.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	s.logf("cs2p prediction engine listening on %s", addr)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("httpapi: %w", err)
		}
		return nil
	case <-ctx.Done():
	}
	if grace <= 0 {
		grace = 10 * time.Second
	}
	s.logf("shutting down: draining in-flight requests (grace %v)", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(sctx)
	deadline, _ := sctx.Deadline()
	s.closeStreams(deadline)
	if err != nil {
		return fmt.Errorf("httpapi: shutdown: %w", err)
	}
	<-errc // reap the serve goroutine (returns ErrServerClosed)
	return nil
}
