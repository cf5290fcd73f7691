package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// StatusError is a non-2xx reply from the prediction service. Callers use
// the code to distinguish retryable server trouble (5xx) from protocol
// errors (4xx) and lost sessions (404, the re-registration trigger).
type StatusError struct {
	Status int
	Path   string
	Msg    string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpapi client: %s: status %d: %s", e.Path, e.Status, e.Msg)
}

// HTTPStatus returns the status code of err if it is a StatusError, else 0
// (connection-level failures have no status).
func HTTPStatus(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status
	}
	return 0
}

// Refused reports whether err is the service declining a request it
// understood (4xx, or 501 for a surface it lacks): a retry would fare the same.
func Refused(err error) bool {
	st := HTTPStatus(err)
	return st/100 == 4 || st == http.StatusNotImplemented
}

// Client is the player-side view of the prediction service. It implements
// predict.Midstream for one session at a time, so the simulator can drive a
// real HTTP round trip per chunk exactly like the Dash.js prototype (§6).
type Client struct {
	base string
	u    *url.URL // base parsed once; nil when calls must parse base+path themselves
	hc   *http.Client
	// Model-download cache: per-feature-query ETag + payload, so re-fetches
	// of an unchanged model revalidate to a 304 instead of re-downloading
	// (the server's /v1/model ETag contract).
	modelMu    sync.Mutex
	modelCache map[string]cachedModel
	downloads  atomic.Uint64
	notMod     atomic.Uint64
	// wireBinary routes the per-chunk predict round trip over the /v2
	// binary protocol instead of JSON v1.
	wireBinary bool
	// observe, when set, is called after every HTTP round trip (JSON and
	// binary alike) — the load harness's stamping hook.
	observe func(CallObservation)
}

// CallObservation is one completed HTTP round trip as seen by the client:
// which route, when it was issued, how long the wire took, and the error it
// resolved to (nil on success, *StatusError on a non-2xx reply). The load
// harness stamps each observation against its open-loop intended schedule;
// Duration alone is the closed-loop ("service time") view that coordinated
// omission produces, which is exactly why the harness records both.
type CallObservation struct {
	Path     string
	Start    time.Time
	Duration time.Duration
	Err      error
}

// SetCallObserver installs fn as the per-round-trip hook (nil removes it).
// Not synchronized against in-flight calls: set it before the client serves
// traffic. fn runs on the calling goroutine and must be cheap and
// concurrency-safe — one client is typically shared by many sessions.
func (c *Client) SetCallObserver(fn func(CallObservation)) { c.observe = fn }

// observed wraps one round trip with the observer hook.
func (c *Client) observed(path string, call func() error) error {
	if c.observe == nil {
		return call()
	}
	start := time.Now()
	err := call()
	c.observe(CallObservation{Path: path, Start: start, Duration: time.Since(start), Err: err})
	return err
}

// cachedModel is one validated /v1/model payload with the ETag it arrived
// under.
type cachedModel struct {
	etag string
	resp modelResponse
}

// ModelFetchStats counts FetchLocalPredictor outcomes: full downloads vs
// 304 revalidations served from the client cache.
type ModelFetchStats struct {
	Downloads   uint64
	NotModified uint64
}

// ModelFetchStats returns the cumulative model-download counters.
func (c *Client) ModelFetchStats() ModelFetchStats {
	return ModelFetchStats{Downloads: c.downloads.Load(), NotModified: c.notMod.Load()}
}

// NewClient targets a server base URL like "http://127.0.0.1:8642".
func NewClient(base string) *Client {
	return NewClientWith(base, &http.Client{Timeout: 5 * time.Second})
}

// NewClientWith targets base through a caller-supplied http.Client — the
// hook the fault-injection harness uses to wrap the transport.
func NewClientWith(base string, hc *http.Client) *Client {
	if hc == nil {
		return NewClient(base)
	}
	c := &Client{base: base, hc: hc}
	if u, err := url.Parse(base); err == nil && u.RawPath == "" {
		c.u = u
	}
	return c
}

// newRequest builds a request for base+path. Everything but the URL is
// http.NewRequest's doing (method check, body, ContentLength, GetBody).
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	if c.u == nil || strings.ContainsAny(path, "%?#") {
		return http.NewRequestWithContext(ctx, method, c.base+path, rd)
	}
	req, err := http.NewRequestWithContext(ctx, method, "", rd)
	if err != nil {
		return nil, err
	}
	*req.URL = *c.u
	req.URL.Path += path
	req.Host = req.URL.Host
	return req, nil
}

// SetTransport swaps the underlying round tripper (fault injection,
// instrumentation). A nil rt restores the default transport.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.hc.Transport = rt
}

// doJSON runs one JSON round trip through encoding/json. It takes a ctx
// because the session-state transfer and drain calls happen inside a bounded
// drain window.
func (c *Client) doJSON(ctx context.Context, method, path string, req, resp any) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return fmt.Errorf("httpapi client: encoding request: %w", err)
		}
	}
	doc, err := c.do(ctx, method, path, body)
	if err != nil || resp == nil || doc == nil {
		return err
	}
	return unmarshalResponse(doc, resp)
}

func unmarshalResponse(doc []byte, resp any) error {
	if err := json.Unmarshal(doc, resp); err != nil {
		return fmt.Errorf("httpapi client: decoding response: %w", err)
	}
	return nil
}

// do runs one round trip with an encoded JSON body (nil for none) and
// returns the reply's: 204 → nil, non-2xx → *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (doc []byte, err error) {
	err = c.observed(path, func() error {
		hreq, err := c.newRequest(ctx, method, path, body)
		if err != nil {
			return fmt.Errorf("httpapi client: building request: %w", err)
		}
		if body != nil {
			hreq.Header["Content-Type"] = jsonContentType
		}
		// Mint a request id so server-side traces and logs can be joined to
		// this client call; the server echoes it back (and mints one itself
		// for clients that don't send it).
		hreq.Header.Set(obs.RequestIDHeader, obs.NewRequestID())
		r, err := c.hc.Do(hreq)
		if err != nil {
			return fmt.Errorf("httpapi client: %s %s: %w", method, path, err)
		}
		defer r.Body.Close()
		if r.StatusCode == http.StatusNoContent {
			return nil
		}
		if r.StatusCode/100 != 2 {
			var eb ErrorBody
			_ = json.NewDecoder(r.Body).Decode(&eb)
			return &StatusError{Status: r.StatusCode, Path: method + " " + path, Msg: eb.Error}
		}
		if doc, err = io.ReadAll(r.Body); err != nil {
			return fmt.Errorf("httpapi client: reading response: %w", err)
		}
		return nil
	})
	return doc, err
}

// ExportSession pulls a live session's exact filter state from the replica —
// the source a drain prefers while the replica still answers.
func (c *Client) ExportSession(ctx context.Context, id string) (engine.SessionState, error) {
	var st engine.SessionState
	err := c.doJSON(ctx, http.MethodGet, "/v1/session/"+url.PathEscape(id)+"/state", nil, &st)
	return st, err
}

// ImportSession installs a session from its state — the one way a session is
// rebuilt anywhere. It replaces any session under the id, so repeats are
// harmless. On 409 (the model guard refused) only a fresh StartSession is left.
func (c *Client) ImportSession(ctx context.Context, st engine.SessionState) error {
	return c.doJSON(ctx, http.MethodPut, "/v1/session/"+url.PathEscape(st.SessionID)+"/state", st, nil)
}

// ForgetSession removes the session from the replica without a QoE log —
// called on the handoff source after the destination has the state.
func (c *Client) ForgetSession(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/session/"+url.PathEscape(id)+"/state", nil, nil)
}

// SetDraining toggles the replica's administrative drain flag; its healthz
// then reports "draining" so out-of-band monitors agree with the router.
func (c *Client) SetDraining(ctx context.Context, on bool) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/admin/drain", DrainRequest{Draining: on}, nil)
}

// SetWireBinary switches the per-chunk observe/predict round trip onto the
// /v2 binary protocol. Session start and the end-of-session log stay on
// JSON v1 regardless — they run once per playback, not once per chunk, and
// v2 deliberately has no message types for them. Predictions are
// bit-identical across the two encodings (both carry IEEE-754 doubles
// unquantized); only the framing changes.
func (c *Client) SetWireBinary(on bool) { c.wireBinary = on }

// WireBinary reports whether the binary /v2 round trip is enabled.
func (c *Client) WireBinary() bool { return c.wireBinary }

// postWire posts one binary frame and decodes the response frame. A
// MsgError response (or an undecodable body) becomes a *StatusError, so
// callers and the resilient ladder see the same error taxonomy as JSON v1.
func (c *Client) postWire(path string, frame []byte) (wire.Frame, error) {
	var f wire.Frame
	err := c.observed(path, func() error {
		var werr error
		f, werr = c.postWireOnce(path, frame)
		return werr
	})
	return f, err
}

func (c *Client) postWireOnce(path string, frame []byte) (wire.Frame, error) {
	hreq, err := c.newRequest(context.Background(), http.MethodPost, path, frame)
	if err != nil {
		return wire.Frame{}, fmt.Errorf("httpapi client: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", wire.ContentType)
	r, err := c.hc.Do(hreq)
	if err != nil {
		return wire.Frame{}, fmt.Errorf("httpapi client: POST %s: %w", path, err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return wire.Frame{}, fmt.Errorf("httpapi client: reading response: %w", err)
	}
	f, derr := wire.DecodeFrame(body, wire.Limits{MaxFrameBytes: len(body) + wire.HeaderLen})
	if derr != nil {
		return wire.Frame{}, &StatusError{Status: r.StatusCode, Path: "POST " + path, Msg: "undecodable wire response: " + derr.Error()}
	}
	if f.Type == wire.MsgError {
		status, msg, _ := wire.DecodeError(f.Payload)
		if status == 0 {
			status = r.StatusCode
		}
		return wire.Frame{}, &StatusError{Status: status, Path: "POST " + path, Msg: string(msg)}
	}
	return f, nil
}

// wireOp runs one single-op binary round trip.
func (c *Client) wireOp(path string, op wire.Op) (float64, error) {
	f, err := c.postWire(path, wire.AppendOp(nil, op))
	if err != nil {
		return 0, err
	}
	if f.Type != wire.MsgPrediction {
		return 0, fmt.Errorf("httpapi client: POST %s: unexpected frame type 0x%02x", path, byte(f.Type))
	}
	return wire.DecodePrediction(f.Payload)
}

// clampHorizon narrows an int horizon to the wire field width; the server
// rejects anything beyond its MaxHorizon long before this bound matters.
func clampHorizon(h int) uint16 {
	if h < 0 {
		return 0
	}
	if h > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(h)
}

// Batch posts interleaved observe/predict ops to /v2/batch (always binary)
// and returns the index-aligned per-op results plus the model generation the
// whole batch was served under. Per-op failures are codes in the results,
// not an error: partial failure is the normal case when multiplexing many
// sessions.
func (c *Client) Batch(ops []wire.Op) ([]wire.OpResult, uint64, error) {
	return c.BatchInto(ops, nil)
}

// BatchInto is Batch decoding into dst[:0]: WantState ops get their sessions'
// states back, into the posterior buffers a recycled dst already holds.
func (c *Client) BatchInto(ops []wire.Op, dst []wire.OpResult) ([]wire.OpResult, uint64, error) {
	f, err := c.postWire("/v2/batch", wire.AppendBatch(nil, ops))
	if err != nil {
		return nil, 0, err
	}
	switch f.Type {
	case wire.MsgBatchResult:
		return wire.DecodeBatchResult(f.Payload, wire.Limits{}, dst[:0])
	case wire.MsgBatchStateResult:
		return wire.DecodeBatchStateResult(f.Payload, wire.Limits{}, dst[:0])
	}
	return nil, 0, fmt.Errorf("httpapi client: POST /v2/batch: unexpected frame type 0x%02x", byte(f.Type))
}

// postCodec is the round trip of the two hand-coded routes: body is the
// appended request and scan reads the reply; where the encoder declined (ok
// false) encoding/json runs the whole call on request(), and where scan
// declines it decodes the same reply bytes.
func postCodec[T any](c *Client, path string, body []byte, ok bool, scan func([]byte) (T, bool), request func() any) (T, error) {
	if !ok {
		var resp T
		err := c.doJSON(context.Background(), http.MethodPost, path, request(), &resp)
		return resp, err
	}
	doc, err := c.do(context.Background(), http.MethodPost, path, body)
	resp, ok := scan(doc)
	if err == nil && !ok {
		var v T
		err = unmarshalResponse(doc, &v)
		resp = v
	}
	return resp, err
}

// StartSession opens a session and returns the server's initial guidance.
func (c *Client) StartSession(id string, f trace.Features, startUnix int64) (engine.StartResponse, error) {
	body, ok := appendStartRequest(make([]byte, 0, 384), id, f, startUnix)
	return postCodec(c, "/v1/session/start", body, ok, scanStartResponse, func() any {
		return StartRequest{SessionID: id, Features: f, StartUnix: startUnix}
	})
}

// ObserveAndPredict reports the last epoch's throughput and fetches the
// next-epoch prediction. Not idempotent: a duplicate delivery feeds the
// observation into the session filter twice, so the resilient layer never
// blind-retries it.
func (c *Client) ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error) {
	if c.wireBinary {
		return c.wireOp("/v2/observe", wire.Op{
			SessionID:    []byte(id),
			ObservedMbps: observedMbps,
			Horizon:      clampHorizon(horizon),
			HasObserve:   true,
		})
	}
	return c.predictJSON(id, observedMbps, true, horizon)
}

// PredictAt queries the current prediction at a horizon without reporting a
// new observation. Idempotent (no session state changes).
func (c *Client) PredictAt(id string, horizon int) (float64, error) {
	if c.wireBinary {
		return c.wireOp("/v2/predict", wire.Op{SessionID: []byte(id), Horizon: clampHorizon(horizon)})
	}
	return c.predictJSON(id, 0, false, horizon)
}

// predictJSON is the POST /v1/predict round trip.
func (c *Client) predictJSON(id string, observedMbps float64, hasObserve bool, horizon int) (float64, error) {
	body, ok := appendPredictRequest(make([]byte, 0, 128), id, observedMbps, hasObserve, horizon)
	resp, err := postCodec(c, "/v1/predict", body, ok, scanPredictResponse, func() any {
		req := PredictRequest{SessionID: id, Horizon: horizon}
		if v := observedMbps; hasObserve { // a copy: the parameter must not escape on the fast path
			req.ObservedMbps = &v
		}
		return req
	})
	return resp.PredictionMbps, err
}

// Log submits the end-of-session QoE report.
func (c *Client) Log(lg engine.SessionLog) error {
	return c.doJSON(context.Background(), http.MethodPost, "/v1/log", lg, nil)
}

// BaseURL returns the server base URL the client targets.
func (c *Client) BaseURL() string { return c.base }

// HTTPClient returns the underlying http.Client (the router's model-export
// proxy reuses it so fault injection and timeouts apply to proxied calls).
func (c *Client) HTTPClient() *http.Client { return c.hc }

// healthzTimeout bounds one readiness probe. The old Healthz issued a raw
// Get with no deadline, so a hung replica (accepting connections, never
// answering) blocked the caller indefinitely — exactly the failure a health
// check exists to detect.
const healthzTimeout = 3 * time.Second

// Healthz checks server liveness and readiness, with a bounded deadline.
func (c *Client) Healthz() error {
	_, err := c.Readiness(context.Background())
	return err
}

// Readiness probes GET /v1/healthz and returns the parsed payload. The
// request deadline is the earlier of ctx and healthzTimeout. A 503 (alive
// but no model installed) returns the payload alongside a *StatusError, so
// callers can distinguish "not ready" from "not answering". Legacy servers
// answering a bare 200 parse to a zero-valued payload with Status "ok".
func (c *Client) Readiness(ctx context.Context) (HealthzResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, healthzTimeout)
	defer cancel()
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return HealthzResponse{}, fmt.Errorf("httpapi client: building request: %w", err)
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return HealthzResponse{}, fmt.Errorf("httpapi client: GET /v1/healthz: %w", err)
	}
	defer r.Body.Close()
	var hr HealthzResponse
	_ = json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&hr)
	if r.StatusCode != http.StatusOK {
		return hr, &StatusError{Status: r.StatusCode, Path: "GET /v1/healthz", Msg: hr.Status}
	}
	if hr.Status == "" {
		hr.Status = HealthzOK
	}
	return hr, nil
}

// SessionPredictor adapts one remote session to predict.Midstream: Predict
// returns the server's latest guidance, Observe performs the HTTP round
// trip. Network failures degrade to NaN predictions (the player falls back
// to its local logic), matching a production player's behaviour when the
// prediction service is unreachable. For retries, circuit breaking, and
// local-model failover, use NewResilientSessionPredictor instead.
type SessionPredictor struct {
	c        *Client
	id       string
	lastPred float64
	started  bool
}

// NewSessionPredictor opens the session server-side and seeds the predictor
// with the initial estimate.
func (c *Client) NewSessionPredictor(id string, f trace.Features, startUnix int64) (*SessionPredictor, error) {
	resp, err := c.StartSession(id, f, startUnix)
	if err != nil {
		return nil, err
	}
	return &SessionPredictor{c: c, id: id, lastPred: resp.InitialPredictionMbps}, nil
}

// Predict implements predict.Midstream.
func (p *SessionPredictor) Predict() float64 { return p.lastPred }

// PredictAhead implements predict.Midstream. Multi-epoch horizons are a
// stateless server query; before the first observation the initial estimate
// stands at every horizon (Algorithm 1).
func (p *SessionPredictor) PredictAhead(k int) float64 {
	if k <= 1 || !p.started {
		return p.lastPred
	}
	pred, err := p.c.PredictAt(p.id, k)
	if err != nil {
		return p.lastPred
	}
	return pred
}

// Observe implements predict.Midstream: one POST /v1/predict round trip.
func (p *SessionPredictor) Observe(w float64) {
	pred, err := p.c.ObserveAndPredict(p.id, w, 1)
	p.started = true
	if err != nil {
		p.lastPred = math.NaN()
		return
	}
	p.lastPred = pred
}
