package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

// fuzzHandler builds one small trained server shared by all fuzz targets.
// Training is deliberately tiny: fuzzing exercises the decode/validate
// layer, not model quality.
func fuzzHandler() (*Server, http.Handler) {
	fuzzOnce.Do(func() {
		cfg := tracegen.SmallConfig()
		cfg.Sessions = 120
		d, _ := tracegen.Generate(cfg)
		ecfg := core.DefaultConfig()
		ecfg.Cluster.MinGroupSize = 10
		ecfg.HMM.NStates = 2
		ecfg.HMM.MaxIters = 4
		eng, err := core.Train(d, ecfg)
		if err != nil {
			panic(err)
		}
		// A two-chunk video keeps StartSession's Monte-Carlo rebuffer
		// rollout cheap; fuzz throughput depends on it.
		spec := video.Default()
		spec.LengthSeconds = 2 * spec.ChunkSeconds
		svc := engine.NewService(eng, ecfg, spec)
		// Online intake on (with a tiny ring so fuzzing reaches the
		// backpressure path) gives FuzzIngest the real /v1/ingest stack.
		svc.SetMetrics(obs.NewRegistry())
		if err := svc.EnableOnline(engine.OnlineOptions{IntakeCapacity: 64}); err != nil {
			panic(err)
		}
		fuzzSrv = NewServer(svc, nil)
		fuzzSrv.SetLogf(func(string, ...any) {})
	})
	return fuzzSrv, fuzzSrv.Handler()
}

// fuzzPost drives one request and applies the shared oracle: the server must
// not panic (PanicCount is the recovery middleware's tally), must answer
// with a plausible status, and every non-204 reply must be valid JSON.
func fuzzPost(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	srv, h := fuzzHandler()
	before := srv.PanicCount()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := srv.PanicCount(); got != before {
		t.Fatalf("handler panicked on %q", body)
	}
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusNoContent:
	default:
		t.Fatalf("unexpected status %d for %q", rec.Code, body)
	}
	if rec.Code != http.StatusNoContent && !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("non-JSON response %q for %q", rec.Body.Bytes(), body)
	}
	return rec
}

// fuzzPostWire drives one raw binary request at a /v2 route and applies the
// wire oracle: no panic, a status from the protocol's taxonomy, and a
// response body that decodes as exactly one well-formed frame of a response
// type (MsgPrediction, MsgBatchResult, MsgBatchStateResult, or MsgError).
func fuzzPostWire(t *testing.T, path string, body []byte) (*httptest.ResponseRecorder, wire.Frame) {
	t.Helper()
	srv, h := fuzzHandler()
	before := srv.PanicCount()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := srv.PanicCount(); got != before {
		t.Fatalf("handler panicked on %x", body)
	}
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("unexpected status %d for %x", rec.Code, body)
	}
	f, err := wire.DecodeFrame(rec.Body.Bytes(), wire.DefaultLimits())
	if err != nil {
		t.Fatalf("response not a wire frame (%v) for %x", err, body)
	}
	switch f.Type {
	case wire.MsgPrediction, wire.MsgBatchResult, wire.MsgBatchStateResult, wire.MsgError:
	default:
		t.Fatalf("response frame type 0x%02x is not a response type", byte(f.Type))
	}
	if rec.Code != http.StatusOK && f.Type != wire.MsgError {
		t.Fatalf("status %d carried a non-error frame", rec.Code)
	}
	return rec, f
}

// FuzzBatchRequest fuzzes raw binary frames against POST /v2/batch: hostile
// counts, truncated ops, oversize declarations, reserved flag bits, and
// arbitrary mutations of valid batches must all land on a typed MsgError —
// never a panic, an over-read, or a malformed response frame — and accepted
// batches must answer every op.
func FuzzBatchRequest(f *testing.F) {
	mkOps := func(ops ...wire.Op) []byte { return wire.AppendBatch(nil, ops) }
	f.Add(mkOps(wire.Op{SessionID: []byte("fz-bat"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true}))
	f.Add(mkOps(
		wire.Op{SessionID: []byte("fz-bat"), ObservedMbps: 1.0, Horizon: 1, HasObserve: true},
		wire.Op{SessionID: []byte("fz-bat"), Horizon: 3},
		wire.Op{SessionID: []byte("nope"), Horizon: 1},
	))
	f.Add(mkOps(wire.Op{SessionID: []byte("fz-bat"), ObservedMbps: math.Inf(1), Horizon: 1, HasObserve: true}))
	f.Add(mkOps(wire.Op{SessionID: []byte("fz-bat"), Horizon: 65535}))
	f.Add(mkOps( // the routing tier's hop: an observation asking for its state
		wire.Op{SessionID: []byte("fz-bat"), ObservedMbps: 1.5, Horizon: 1, HasObserve: true, WantState: true},
		wire.Op{SessionID: []byte("nope"), Horizon: 1, WantState: true},
	))
	f.Add(wire.AppendOp(nil, wire.Op{SessionID: []byte("fz-bat"), Horizon: 1})) // wrong type for the route
	f.Add([]byte{0xC5, 0x2B, 1, byte(wire.MsgBatch), 0xFF, 0xFF, 0xFF, 0x7F})   // huge declared length
	f.Add([]byte{0xC5, 0x2B, 1, byte(wire.MsgBatch), 2, 0, 0, 0, 0xFF, 0xFF})   // 65535 ops, no bodies
	f.Add([]byte{0xC5, 0x2B, 1, byte(wire.MsgBatch), 2, 0, 0, 0, 0, 0})         // zero ops
	f.Add([]byte{0xC5, 0x2B, 2, byte(wire.MsgBatch), 0, 0, 0, 0})               // future version
	f.Add([]byte(`{"session_id":"fz-bat"}`))                                    // JSON at a binary route
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/v1/session/start", []byte(`{"session_id":"fz-bat","start_unix":1}`))
		rec, fr := fuzzPostWire(t, "/v2/batch", body)
		if rec.Code != http.StatusOK {
			return
		}
		// The request had to be a decodable batch to get a 200; the response
		// must answer exactly its ops — with the state-carrying result type
		// if and only if some op asked for state — and every successful op
		// must carry a usable prediction, plus a usable state when it asked.
		sent, err := wire.DecodeBatch(body[wire.HeaderLen:], srvFuzzLimits(), nil)
		if err != nil {
			t.Fatalf("200 for a batch the decoder rejects: %v", err)
		}
		want, decode := wire.MsgBatchResult, wire.DecodeBatchResult
		for _, op := range sent {
			if op.WantState {
				want, decode = wire.MsgBatchStateResult, wire.DecodeBatchStateResult
			}
		}
		if fr.Type != want {
			t.Fatalf("200 response carried frame type 0x%02x, want 0x%02x", byte(fr.Type), byte(want))
		}
		res, _, err := decode(fr.Payload, wire.Limits{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(sent) {
			t.Fatalf("%d results for %d ops", len(res), len(sent))
		}
		for i, r := range res {
			if r.Code == wire.OpOK && (math.IsNaN(r.PredictionMbps) || math.IsInf(r.PredictionMbps, 0) || r.PredictionMbps <= 0) {
				t.Fatalf("op %d: OK result with prediction %v", i, r.PredictionMbps)
			}
			if got := len(r.State.Posterior) > 0; got != (r.Code == wire.OpOK && sent[i].WantState) {
				t.Fatalf("op %d (code %d, want state %v): state present = %v", i, r.Code, sent[i].WantState, got)
			}
		}
	})
}

// srvFuzzLimits mirrors the fuzz server's decoder bounds.
func srvFuzzLimits() wire.Limits {
	srv, _ := fuzzHandler()
	return srv.wireLimits()
}

// FuzzIngest fuzzes the POST /v1/ingest decoder and validators: hostile
// session counts, oversized or non-finite throughput series, unbounded
// feature strings, and trailing data must all land on a 4xx — never a panic
// or a NaN smuggled into the intake ring — and every accepted batch must
// report coherent accounting.
func FuzzIngest(f *testing.F) {
	f.Add([]byte(`{"sessions":[{"session_id":"fz-ing","start_unix":100,"features":{"isp":"a"},"throughput_mbps":[1.5,2,3]}]}`))
	f.Add([]byte(`{"sessions":[]}`))
	f.Add([]byte(`{"sessions":[{"session_id":"","throughput_mbps":[1]}]}`))
	f.Add([]byte(`{"sessions":[{"session_id":"fz-ing","throughput_mbps":[]}]}`))
	f.Add([]byte(`{"sessions":[{"session_id":"fz-ing","throughput_mbps":[-1]}]}`))
	f.Add([]byte(`{"sessions":[{"session_id":"fz-ing","throughput_mbps":[1e300]}]}`))
	f.Add([]byte(`{"sessions":[{"session_id":"fz-ing","throughput_mbps":[1]}]}trailing`))
	f.Add([]byte(`{"sessions":[{"session_id":"fz-ing","features":{"city":"` + string(bytes.Repeat([]byte("x"), 4096)) + `"},"throughput_mbps":[1]}]}`))
	f.Add([]byte(`{"sessions":[{"session_id":"` + string(make([]byte, 300)) + `","throughput_mbps":[1]}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, h := fuzzHandler()
		before := srv.PanicCount()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := srv.PanicCount(); got != before {
			t.Fatalf("handler panicked on %q", body)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d for %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for %q", rec.Body.Bytes(), body)
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
			return
		}
		// Accounting oracle: accepted ≥ 0, evictions never exceed
		// acceptances, and the ring occupancy stays within its capacity.
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d response not an IngestResponse: %v", rec.Code, err)
		}
		if resp.Accepted < 0 || resp.Evicted > resp.Accepted {
			t.Fatalf("incoherent accounting %+v for %q", resp.IngestResult, body)
		}
		if resp.Buffered < 0 || resp.Buffered > 64 {
			t.Fatalf("ring occupancy %d outside [0,64] for %q", resp.Buffered, body)
		}
	})
}

// trailingClosers are tails json.Decoder.More() took for the end of input
// (it answers false at '}' and ']'), so a body carrying one was accepted.
var trailingClosers = []string{"}", "]", " ]]]garbage"}

// FuzzStartSession fuzzes the POST /v1/session/start decoder and validators.
// It found two real holes, both fixed and pinned by seeds here: trailing
// data after the JSON document was silently accepted, and feature strings
// were unbounded up to the body cap.
func FuzzStartSession(f *testing.F) {
	f.Add([]byte(`{"session_id":"fz","features":{"isp":"a","province":"b"},"start_unix":100}`))
	f.Add([]byte(`{"session_id":"fz"}{"session_id":"fz2"}`)) // trailing document
	f.Add([]byte(`{"session_id":"fz"}garbage`))              // trailing garbage
	for _, tail := range trailingClosers {
		f.Add([]byte(`{"session_id":"fz","start_unix":1}` + tail))
	}
	f.Add([]byte(`{"session_id":""}`))
	f.Add([]byte(`{"session_id":"` + string(make([]byte, 300)) + `"}`))
	f.Add([]byte(`{"session_id":"fz","features":{"city":"` + string(bytes.Repeat([]byte("x"), 4096)) + `"}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"session_id":"fz","start_unix":1e99}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := fuzzPost(t, "/v1/session/start", body)
		if rec.Code != http.StatusOK {
			return
		}
		// A 200 means the body passed validation; the start response must
		// then be complete and finite.
		var resp engine.StartResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 response not a StartResponse: %v", err)
		}
		if math.IsNaN(resp.InitialPredictionMbps) || resp.InitialPredictionMbps <= 0 {
			t.Fatalf("accepted start produced initial prediction %v", resp.InitialPredictionMbps)
		}
	})
}

// FuzzObserve fuzzes POST /v1/predict against a live session: no input may
// panic the server, corrupt the session filter into NaN predictions, or be
// accepted with trailing data.
func FuzzObserve(f *testing.F) {
	f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":3.5,"horizon":1}`))
	f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":0}`))
	f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":-1}`))
	f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":1e300}`))
	f.Add([]byte(`{"session_id":"fz-obs","horizon":9999999}`))
	f.Add([]byte(`{"session_id":"fz-obs","horizon":-3}`))
	f.Add([]byte(`{"session_id":"nope","observed_mbps":1}`))
	f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":2} extra`))
	for _, tail := range trailingClosers {
		f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":1}` + tail))
	}
	f.Add([]byte(`{"session_id":"fz-obs","observed_mbps":null,"horizon":2}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		// (Re-)register the target session so stateful inputs land on a live
		// filter; duplicate starts reset it, keeping iterations independent.
		fuzzPost(t, "/v1/session/start", []byte(`{"session_id":"fz-obs","start_unix":1}`))
		rec := fuzzPost(t, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			return
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 response not a PredictResponse: %v", err)
		}
		if math.IsNaN(resp.PredictionMbps) || math.IsInf(resp.PredictionMbps, 0) || resp.PredictionMbps <= 0 {
			t.Fatalf("accepted observation produced prediction %v for %q", resp.PredictionMbps, body)
		}
	})
}

// FuzzImportSession fuzzes PUT /v1/session/{id}/state, the route every tier
// rebuilds sessions through — a posterior accepted from the network. Oracles:
// no input may panic or draw a 5xx; an accepted import (204) must leave a
// session holding exactly the pushed filter state (never one whose restore
// was skipped); a rejected one must leave no session; and the 400/409 split
// holds — 409 only for a payload that is sound but names another schema or
// model, so callers can tell "start afresh" from "you sent garbage".
func FuzzImportSession(f *testing.F) {
	srv, h := fuzzHandler()
	svc := srv.svc.(*engine.Service)
	const id = "fz-imp"
	svc.StartSession(id, trace.Features{ISP: "isp-1"}, 1)
	if _, err := svc.ObserveAndPredict(id, 2.5, 1); err != nil {
		f.Fatal(err)
	}
	good, err := svc.ExportSession(id)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(mut func(st *engine.SessionState)) {
		st := good
		st.Posterior = append([]float64(nil), good.Posterior...)
		mut(&st)
		b, _ := json.Marshal(st)
		f.Add(b)
	}
	seed(func(*engine.SessionState) {})
	seed(func(st *engine.SessionState) { st.ModelGeneration += 7 })    // another model: 409
	seed(func(st *engine.SessionState) { st.Schema++ })                // another schema: 409
	seed(func(st *engine.SessionState) { st.ClusterID = "elsewhere" }) // cluster witness: 409
	seed(func(st *engine.SessionState) { st.Posterior[0] = -1 })
	seed(func(st *engine.SessionState) { st.Posterior = st.Posterior[:1] })
	seed(func(st *engine.SessionState) { st.Posterior = nil })
	seed(func(st *engine.SessionState) { st.Epoch = -3 })
	seed(func(st *engine.SessionState) { st.SessionID = "someone-else" })
	seed(func(st *engine.SessionState) { st.Captured = []float64{1, -2} })
	f.Add([]byte(`{"schema":1,"posterior":[1e999]}`))
	f.Add([]byte(`{"schema":1,"posterior":[0.5,0.5]}trailing`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	serving := svc.Health()
	f.Fuzz(func(t *testing.T, body []byte) {
		svc.ForgetSession(id)
		before := srv.PanicCount()
		req := httptest.NewRequest(http.MethodPut, "/v1/session/"+id+"/state", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := srv.PanicCount(); got != before {
			t.Fatalf("handler panicked on %q", body)
		}
		var sent engine.SessionState
		sound := json.Unmarshal(body, &sent) == nil
		got, err := svc.ExportSession(id)
		switch rec.Code {
		case http.StatusNoContent:
			if err != nil {
				t.Fatalf("204 but no session: %v", err)
			}
			if got.Started != sent.Started || got.Epoch != sent.Epoch || len(got.Posterior) != len(sent.Posterior) {
				t.Fatalf("204 but session holds %+v, pushed %+v", got, sent)
			}
			for i := range got.Posterior {
				if math.Float64bits(got.Posterior[i]) != math.Float64bits(sent.Posterior[i]) {
					t.Fatalf("204 but posterior %v, pushed %v (restore skipped?)", got.Posterior, sent.Posterior)
				}
			}
		case http.StatusConflict:
			otherModel := sent.ModelVersion != serving.ModelVersion || (serving.ModelVersion == 0 && sent.ModelGeneration != serving.Generation)
			// (A cluster named in the payload is re-resolved from its fuzzed
			// features, so only its absence rules that refusal out.)
			if !sound || (sent.Schema == engine.SessionStateSchema && !otherModel && sent.ClusterID == "") {
				t.Fatalf("409 for a payload that names this schema and model (or is not sound at all): %q", body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for %q", rec.Code, body)
		}
		if rec.Code != http.StatusNoContent {
			if err == nil {
				t.Fatalf("status %d left a session behind for %q", rec.Code, body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("non-JSON response %q for %q", rec.Body.Bytes(), body)
			}
		}
	})
}
