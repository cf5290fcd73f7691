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

// hdr is one request header. val is assigned, not copied, so a constant one
// (jsonContentType, wireContentType) is shared between calls.
type hdr struct {
	key string
	val []string
}

// maxReplyBytes caps what the client buffers of any reply. The largest
// legitimate one — a full state-carrying batch result, or a model — is far
// below it.
const maxReplyBytes = 8 << 20

// roundTrip is every call the client makes: the one place a request is built
// (everything but the URL is http.NewRequest's doing: method check, body,
// ContentLength, GetBody), sent, and its reply read whole under
// maxReplyBytes, and the one wording of a failure to do so — an error with no
// HTTP status, which callers treat as the request never having landed
// deterministically. What a status means is the caller's classification.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, headers ...hdr) (status int, h http.Header, reply []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var req *http.Request
	if c.u == nil || strings.ContainsAny(path, "%?#") {
		req, err = http.NewRequestWithContext(ctx, method, c.base+path, rd)
	} else if req, err = http.NewRequestWithContext(ctx, method, "", rd); err == nil {
		*req.URL = *c.u
		req.URL.Path += path
		req.Host = req.URL.Host
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("httpapi client: building request: %w", err)
	}
	for _, hd := range headers {
		req.Header[hd.key] = hd.val
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("httpapi client: %s %s: %w", method, path, err)
	}
	defer r.Body.Close()
	// Not io.LimitReader: it would cost every per-chunk call an allocation.
	if reply, err = readCapped(r.Body, nil, maxReplyBytes); err != nil {
		return 0, nil, nil, fmt.Errorf("httpapi client: %s %s: reading response: %w", method, path, err)
	}
	return r.StatusCode, r.Header, reply, nil
}

// jsonStatusError is a JSON route's non-success reply as a *StatusError
// carrying the ErrorBody message, if the body has one.
func jsonStatusError(call string, status int, reply []byte) error {
	var eb ErrorBody
	_ = json.Unmarshal(reply, &eb)
	return &StatusError{Status: status, Path: call, Msg: eb.Error}
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
	if err != nil || resp == nil {
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
// returns the reply's, or a *StatusError for a non-2xx. It mints a request
// id so server-side traces and logs can be joined to this client call; the
// server echoes it back (and mints one itself for clients that don't send it).
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	headers := []hdr{{obs.RequestIDHeader, []string{obs.NewRequestID()}}, {"Content-Type", jsonContentType}}
	if body == nil {
		headers = headers[:1]
	}
	status, _, doc, err := c.roundTrip(ctx, method, path, body, headers...)
	switch {
	case err != nil:
		return nil, err
	case status/100 != 2:
		return nil, jsonStatusError(method+" "+path, status, doc)
	}
	return doc, nil
}

// Get issues GET path (query included), conditional on ifNoneMatch when it
// is not empty, and returns the reply as it came — what a proxy relays. Any
// status but 200 and 304 comes with a *StatusError beside it, so a caller
// classifies it like every other call's; its Path leaves the query out (a
// model fetch's carries the player's address). headers, which only this
// package can pass, go on the request too.
func (c *Client) Get(ctx context.Context, path, ifNoneMatch string, headers ...hdr) (status int, h http.Header, reply []byte, err error) {
	if ifNoneMatch != "" {
		headers = append(headers, hdr{"If-None-Match", []string{ifNoneMatch}})
	}
	status, h, reply, err = c.roundTrip(ctx, http.MethodGet, path, nil, headers...)
	if err == nil && status != http.StatusOK && status != http.StatusNotModified {
		route, _, _ := strings.Cut(path, "?")
		err = jsonStatusError("GET "+route, status, reply)
	}
	return status, h, reply, err
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
// v2 deliberately has no route for them. Predictions are
// bit-identical across the two encodings (both carry IEEE-754 doubles
// unquantized); only the framing changes.
func (c *Client) SetWireBinary(on bool) { c.wireBinary = on }

// postWire posts one binary frame and decodes the response frame. A
// MsgError response (or an undecodable body) becomes a *StatusError, so
// callers and the resilient ladder see the same error taxonomy as JSON v1.
func (c *Client) postWire(path string, frame []byte) (wire.Frame, error) {
	status, _, body, err := c.roundTrip(context.Background(), http.MethodPost, path, frame, hdr{"Content-Type", wireContentType})
	if err != nil {
		return wire.Frame{}, err
	}
	f, err := wire.DecodeFrame(body, wire.Limits{MaxFrameBytes: len(body) + wire.HeaderLen})
	if err != nil {
		return wire.Frame{}, &StatusError{Status: status, Path: "POST " + path, Msg: "undecodable wire response: " + err.Error()}
	}
	if f.Type == wire.MsgError {
		code, msg, _ := wire.DecodeError(f.Payload)
		if code != 0 {
			status = code
		}
		return wire.Frame{}, &StatusError{Status: status, Path: "POST " + path, Msg: string(msg)}
	}
	return f, nil
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
	return c.predict(id, observedMbps, true, horizon)
}

// PredictAt queries the current prediction at a horizon without reporting a
// new observation. Idempotent (no session state changes).
func (c *Client) PredictAt(id string, horizon int) (float64, error) {
	return c.predict(id, 0, false, horizon)
}

// predict is the per-chunk round trip under the client's encoding: one MsgOp
// frame to /v2/observe or /v2/predict, or POST /v1/predict.
func (c *Client) predict(id string, observedMbps float64, hasObserve bool, horizon int) (float64, error) {
	if c.wireBinary {
		path := "/v2/predict"
		if hasObserve {
			path = "/v2/observe"
		}
		f, err := c.postWire(path, wire.AppendOp(nil, wire.Op{SessionID: []byte(id), ObservedMbps: observedMbps, Horizon: horizon, HasObserve: hasObserve}))
		if err != nil {
			return 0, err
		}
		if f.Type != wire.MsgPrediction {
			return 0, fmt.Errorf("httpapi client: POST %s: unexpected frame type 0x%02x", path, byte(f.Type))
		}
		return wire.DecodePrediction(f.Payload)
	}
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

// healthzTimeout bounds one readiness probe: a hung replica (accepting
// connections, never answering) is exactly the failure a probe must detect.
const healthzTimeout = 3 * time.Second

// closeAfter asks the server to close the connection after its reply: kept,
// a one-off GET's connection (Healthz, a model fetch) would carry the client's
// later POSTs to net/http rather than to the server's lane (DESIGN §10.3).
var closeAfter = hdr{"Connection", []string{"close"}}

// Healthz checks server liveness and readiness, with a bounded deadline.
func (c *Client) Healthz() error {
	_, err := c.Readiness(context.Background(), closeAfter)
	return err
}

// Readiness probes GET /v1/healthz and returns the parsed payload. The
// request deadline is the earlier of ctx and healthzTimeout. A 503 (alive
// but no model installed) returns the payload alongside a *StatusError, so
// callers can distinguish "not ready" from "not answering". Legacy servers
// answering a bare 200 parse to a zero-valued payload with Status "ok".
// headers, which only this package can pass, go on the request.
func (c *Client) Readiness(ctx context.Context, headers ...hdr) (HealthzResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, healthzTimeout)
	defer cancel()
	status, _, reply, err := c.roundTrip(ctx, http.MethodGet, "/v1/healthz", nil, headers...)
	if err != nil {
		return HealthzResponse{}, err
	}
	var hr HealthzResponse
	_ = json.Unmarshal(reply, &hr)
	if status != http.StatusOK {
		return hr, &StatusError{Status: status, Path: "GET /v1/healthz", Msg: hr.Status}
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
// local-model failover, use NewResilientPredictor instead.
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
