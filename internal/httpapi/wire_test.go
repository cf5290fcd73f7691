package httpapi

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// wireServer builds a trained server on the shared test engine with the
// binary routes enabled (the default).
func wireServer(t testing.TB) (*httptest.Server, *engine.Service) {
	t.Helper()
	ensureEnv()
	svc := engine.NewService(envEngine, envCfg, video.Default())
	srv := NewServer(svc, nil)
	srv.SetLogf(func(string, ...any) {})
	return httptest.NewServer(srv.Handler()), svc
}

// TestWireBinaryMatchesJSON drives the same observation sequence through the
// JSON v1 and binary v2 round trips on twin sessions and requires
// bit-identical predictions: the binary protocol is an encoding change, not
// a prediction change.
func TestWireBinaryMatchesJSON(t *testing.T) {
	ts, _ := wireServer(t)
	defer ts.Close()
	cj := NewClient(ts.URL)
	cb := NewClient(ts.URL)
	cb.SetWireBinary(true)

	s := envTest.Sessions[0]
	rj, err := cj.StartSession("twin-json", s.Features, s.StartUnix)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := cb.StartSession("twin-bin", s.Features, s.StartUnix)
	if err != nil {
		t.Fatal(err)
	}
	if rj.InitialPredictionMbps != rb.InitialPredictionMbps {
		t.Fatalf("initial predictions diverge: %v vs %v", rj.InitialPredictionMbps, rb.InitialPredictionMbps)
	}
	for i, w := range s.Throughput[:8] {
		pj, err := cj.ObserveAndPredict("twin-json", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := cb.ObserveAndPredict("twin-bin", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pj != pb {
			t.Fatalf("epoch %d: json %v != binary %v", i, pj, pb)
		}
		qj, err := cj.PredictAt("twin-json", 3)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := cb.PredictAt("twin-bin", 3)
		if err != nil {
			t.Fatal(err)
		}
		if qj != qb {
			t.Fatalf("epoch %d horizon 3: json %v != binary %v", i, qj, qb)
		}
	}

	// The horizon ladder at the range check's edges: the one difference
	// between the encodings is that a frame has no spelling for a negative
	// horizon, so the binary client's reaches the server as 0 (the default).
	for _, tc := range []struct{ horizon, json, binary int }{
		{-1, 400, 0}, {0, 0, 0}, {512, 0, 0}, {513, 400, 400}, {70000, 400, 400},
	} {
		_, errJ := cj.PredictAt("twin-json", tc.horizon)
		_, errB := cb.PredictAt("twin-bin", tc.horizon)
		if HTTPStatus(errJ) != tc.json || HTTPStatus(errB) != tc.binary {
			t.Errorf("horizon %d: json %v, binary %v; want statuses %d and %d (0 = served)", tc.horizon, errJ, errB, tc.json, tc.binary)
		}
		if errJ != nil && errB != nil && errJ.(*StatusError).Msg != errB.(*StatusError).Msg {
			t.Errorf("horizon %d: json says %q, binary %q", tc.horizon, errJ, errB)
		}
	}
}

// TestWireBatchHTTP exercises /v2/batch end to end: per-op codes for
// unknown sessions and out-of-range values, predictions identical to the
// single-op route, and a nonzero pinned generation in the response.
func TestWireBatchHTTP(t *testing.T) {
	ts, svc := wireServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.SetWireBinary(true)
	s := envTest.Sessions[0]
	// Twin sessions: "bat" served via the batch, "one" via single ops.
	if _, err := c.StartSession("bat", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartSession("one", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}

	res, gen, err := c.Batch([]wire.Op{
		{SessionID: []byte("bat"), ObservedMbps: 2.0, Horizon: 1, HasObserve: true},
		{SessionID: []byte("bat"), Horizon: 3},
		{SessionID: []byte("missing"), ObservedMbps: 1.0, Horizon: 1, HasObserve: true},
		{SessionID: []byte("bat"), ObservedMbps: math.NaN(), Horizon: 1, HasObserve: true},
		{SessionID: []byte("bat"), Horizon: 60000}, // beyond MaxHorizon
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	if gen != svc.ModelGeneration() {
		t.Errorf("batch generation = %d, want the pinned snapshot's %d", gen, svc.ModelGeneration())
	}
	p0, err := c.ObserveAndPredict("one", 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.PredictAt("one", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Code != wire.OpOK || res[0].PredictionMbps != p0 {
		t.Errorf("op 0 = %+v, want OK with prediction %v", res[0], p0)
	}
	if res[1].Code != wire.OpOK || res[1].PredictionMbps != p1 {
		t.Errorf("op 1 = %+v, want OK with prediction %v", res[1], p1)
	}
	if res[2].Code != wire.OpUnknownSession {
		t.Errorf("op 2 code = %d, want OpUnknownSession", res[2].Code)
	}
	if res[3].Code != wire.OpInvalid {
		t.Errorf("op 3 code = %d, want OpInvalid (NaN observation)", res[3].Code)
	}
	if res[4].Code != wire.OpInvalid {
		t.Errorf("op 4 code = %d, want OpInvalid (horizon beyond cap)", res[4].Code)
	}
}

// postRawWire posts raw bytes with an arbitrary content type and returns the
// response.
func postRawWire(t *testing.T, url, ct string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestWireErrorTaxonomy maps the protocol failure modes to HTTP statuses and
// checks every error response is itself a decodable MsgError frame carrying
// the same status.
func TestWireErrorTaxonomy(t *testing.T) {
	ts, _ := wireServer(t)
	defer ts.Close()
	validOp := wire.AppendOp(nil, wire.Op{SessionID: []byte("x"), ObservedMbps: 1, Horizon: 1, HasObserve: true})
	oversize := append([]byte{0xC5, 0x2B, 1, byte(wire.MsgOp)}, 0xFF, 0xFF, 0xFF, 0x7F)
	noFlag := wire.AppendOp(nil, wire.Op{SessionID: []byte("x"), Horizon: 1})
	bigHorizon := wire.AppendOp(nil, wire.Op{SessionID: []byte("x"), Horizon: 60000})
	cases := []struct {
		name   string
		path   string
		ct     string
		body   []byte
		status int
	}{
		{"json content type", "/v2/observe", "application/json", validOp, http.StatusUnsupportedMediaType},
		{"empty body", "/v2/observe", wire.ContentType, nil, http.StatusBadRequest},
		{"json body", "/v2/observe", wire.ContentType, []byte(`{"session_id":"x"}`), http.StatusBadRequest},
		{"oversize declared length", "/v2/observe", wire.ContentType, oversize, http.StatusRequestEntityTooLarge},
		{"trailing bytes", "/v2/observe", wire.ContentType, append(append([]byte{}, validOp...), 0xFF), http.StatusBadRequest},
		{"batch frame on op route", "/v2/observe", wire.ContentType, wire.AppendBatch(nil, []wire.Op{{SessionID: []byte("x"), Horizon: 1}}), http.StatusBadRequest},
		{"observe flag missing", "/v2/observe", wire.ContentType, noFlag, http.StatusBadRequest},
		{"observe flag on predict route", "/v2/predict", wire.ContentType, validOp, http.StatusBadRequest},
		{"horizon beyond cap", "/v2/observe", wire.ContentType, bigHorizon, http.StatusBadRequest},
		{"unknown session", "/v2/observe", wire.ContentType, validOp, http.StatusNotFound},
		{"unknown v2 route", "/v2/nope", wire.ContentType, validOp, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postRawWire(t, ts.URL+tc.path, tc.ct, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %x)", resp.StatusCode, tc.status, raw)
			}
			f, err := wire.DecodeFrame(raw, wire.DefaultLimits())
			if err != nil || f.Type != wire.MsgError {
				t.Fatalf("error response is not a MsgError frame: %v (type %v)", err, f.Type)
			}
			status, msg, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.status {
				t.Errorf("frame status %d != HTTP status %d", status, tc.status)
			}
			if len(msg) == 0 {
				t.Error("empty error message")
			}
		})
	}

	// Method check: GET answers 405 with a MsgError body.
	resp, err := http.Get(ts.URL + "/v2/observe")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
	if f, err := wire.DecodeFrame(raw, wire.DefaultLimits()); err != nil || f.Type != wire.MsgError {
		t.Fatalf("405 body is not a MsgError frame: %v", err)
	}
}

// benchWriter is a reusable ResponseWriter so the serve benchmarks measure
// the handler stack, not httptest's recorder allocations.
type benchWriter struct {
	h   http.Header
	buf []byte
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(int)             {}
func (w *benchWriter) Write(b []byte) (int, error) { w.buf = append(w.buf, b...); return len(b), nil }

// TestWireSingleOpAllocFloor pins the tentpole's HTTP-side contract: the
// steady-state binary single-op request costs at most 4 allocations through
// the full handler stack (middleware + dispatch + engine + response).
func TestWireSingleOpAllocFloor(t *testing.T) {
	ensureEnv()
	reg := obs.NewRegistry()
	svc := engine.NewService(envEngine, envCfg, video.Default())
	svc.SetMetrics(reg)
	srv := NewServer(svc, nil)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(reg)
	h := srv.Handler()
	s := envTest.Sessions[0]
	svc.StartSession("alloc", s.Features, s.StartUnix)

	frame := wire.AppendOp(nil, wire.Op{SessionID: []byte("alloc"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true})
	br := bytes.NewReader(frame)
	req := httptest.NewRequest(http.MethodPost, "/v2/observe", br)
	req.Header.Set("Content-Type", wire.ContentType)
	body := io.NopCloser(br)
	w := &benchWriter{h: make(http.Header, 4)}
	run := func() {
		br.Reset(frame)
		req.Body = body
		w.buf = w.buf[:0]
		h.ServeHTTP(w, req)
	}
	run() // warm pools and lazily built metric handles
	allocs := testing.AllocsPerRun(300, run)
	if allocs > 4 {
		t.Errorf("binary single op allocates %v per request, want <= 4", allocs)
	}
}

// BenchmarkWireServe is the json-vs-binary × single-vs-batch serve grid
// (`make bench` runs it). Requests are driven straight into the handler
// stack with reusable writers and seekable bodies, so the numbers isolate
// the serve path from httptest and the TCP stack.
func BenchmarkWireServe(b *testing.B) {
	ensureEnv()
	newStack := func(b *testing.B) (http.Handler, *engine.Service) {
		reg := obs.NewRegistry()
		svc := engine.NewService(envEngine, envCfg, video.Default())
		svc.SetMetrics(reg)
		srv := NewServer(svc, nil)
		srv.SetLogf(func(string, ...any) {})
		srv.SetMetrics(reg)
		return srv.Handler(), svc
	}
	s := envTest.Sessions[0]

	drive := func(b *testing.B, h http.Handler, path, ct string, payload []byte, opsPerReq int) {
		br := bytes.NewReader(payload)
		req := httptest.NewRequest(http.MethodPost, path, br)
		req.Header.Set("Content-Type", ct)
		body := io.NopCloser(br)
		w := &benchWriter{h: make(http.Header, 4)}
		// Warm pools and metric handles before measuring.
		h.ServeHTTP(w, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.Reset(payload)
			req.Body = body
			w.buf = w.buf[:0]
			h.ServeHTTP(w, req)
		}
		b.StopTimer()
		ops := float64(b.N) * float64(opsPerReq)
		b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/predict")
	}

	b.Run("format=json/batch=1", func(b *testing.B) {
		h, svc := newStack(b)
		svc.StartSession("bench", s.Features, s.StartUnix)
		body := []byte(`{"session_id":"bench","observed_mbps":2.5,"horizon":1}`)
		drive(b, h, "/v1/predict", "application/json", body, 1)
	})
	b.Run("format=binary/batch=1", func(b *testing.B) {
		h, svc := newStack(b)
		svc.StartSession("bench", s.Features, s.StartUnix)
		frame := wire.AppendOp(nil, wire.Op{SessionID: []byte("bench"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true})
		drive(b, h, "/v2/observe", wire.ContentType, frame, 1)
	})
	for _, size := range []int{16, 64} {
		b.Run(fmt.Sprintf("format=binary/batch=%d", size), func(b *testing.B) {
			h, svc := newStack(b)
			ops := make([]wire.Op, size)
			for i := range ops {
				id := fmt.Sprintf("bench-%d", i)
				svc.StartSession(id, s.Features, s.StartUnix)
				ops[i] = wire.Op{SessionID: []byte(id), ObservedMbps: 2.5, Horizon: 1, HasObserve: true}
			}
			frame := wire.AppendBatch(nil, ops)
			drive(b, h, "/v2/batch", wire.ContentType, frame, size)
		})
	}
}

// fixedBackend answers every op with a prediction that is a pure function of
// the op, so response frames are reproducible byte for byte.
type fixedBackend struct{ bareSessionService }

func (fixedBackend) ServeBatch(ops []engine.BatchOp, res []engine.BatchResult) uint64 {
	for i, op := range ops {
		res[i] = engine.BatchResult{PredictionMbps: op.ObservedMbps + float64(op.Horizon)}
		if string(op.SessionID) == "gone" {
			res[i] = engine.BatchResult{Code: wire.OpUnknownSession}
		}
	}
	return 7
}

// TestDirectClientFramesFrozen pins the player-facing binary protocol to its
// bytes: what a direct client sends for an observe, a horizon query and a
// batch, and what the server answers, are the literal frames below —
// captured before the state-carrying result type and its op flag existed. A
// client that never asks for state must not be able to tell they do.
func TestDirectClientFramesFrozen(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	h := srv.Handler()
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(r.Method, r.URL.Path, bytes.NewReader(body))
		req.Header = r.Header
		h.ServeHTTP(rec, req)
		got = append(got, r.URL.Path+" > "+hex.EncodeToString(body), r.URL.Path+" < "+hex.EncodeToString(rec.Body.Bytes()))
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.SetWireBinary(true)
	if _, err := c.ObserveAndPredict("s1", 2.5, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictAt("s1", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveAndPredict("gone", 1, 1); HTTPStatus(err) != http.StatusNotFound {
		t.Fatalf("lost session: %v, want 404", err)
	}
	if _, _, err := c.Batch([]wire.Op{
		{SessionID: []byte("s1"), ObservedMbps: 1.25, Horizon: 1, HasObserve: true},
		{SessionID: []byte("gone"), Horizon: 4},
	}); err != nil {
		t.Fatal(err)
	}
	want := frozenFrames
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// frozenFrames: request (>) and response (<) bodies, hex, in call order.
var frozenFrames = []string{
	"/v2/observe > c52b01010f000000010300000000000000044002007331",
	"/v2/observe < c52b0102080000000000000000001640",
	"/v2/predict > c52b01010f000000000200000000000000000002007331",
	"/v2/predict < c52b0102080000000000000000000040",
	"/v2/observe > c52b010111000000010100000000000000f03f0400676f6e65",
	"/v2/observe < c52b01051300000094010f00756e6b6e6f776e2073657373696f6e",
	"/v2/batch > c52b0103220000000200010100000000000000f43f0200733100040000000000000000000400676f6e65",
	"/v2/batch < c52b01041c00000007000000000000000200000000000000000240010000000000000000",
}

// TestPlayerRouteAllocFloors pins the JSON player routes the way
// TestWireSingleOpAllocFloor pins the binary one: steady-state allocations
// per request through the full handler stack with metrics attached. Predict
// allocates nothing of its own (the floor leaves 2 for the runtime's
// benefit). Start pays for what the session keeps — its id and six feature
// strings — and 3 for a cluster id encoding/json has to escape, on top of the
// engine's own session objects: 33 under this package's test model
// (history-window clusters), ~10 under the benchmark's, which is where the
// handler's total is <= 20. Log is encoding/json's
// Unmarshal, bounded by what the route cost behind TimeoutHandler here (23).
func TestPlayerRouteAllocFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors are not exact under the race detector")
	}
	ensureEnv()
	reg := obs.NewRegistry()
	svc := engine.NewService(envEngine, envCfg, video.Default())
	svc.SetMetrics(reg)
	srv := NewServer(svc, nil)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(reg)
	h := srv.Handler()
	s := envTest.Sessions[0]
	svc.StartSession("alloc", s.Features, s.StartUnix)
	startBody, _ := appendStartRequest(nil, "alloc-start", s.Features, s.StartUnix)
	engineStart := testing.AllocsPerRun(100, func() { svc.StartSession("alloc-start", s.Features, s.StartUnix) })

	for _, tc := range []struct {
		path, body string
		max        float64
	}{
		{"/v1/predict", `{"session_id":"alloc","observed_mbps":2.5,"horizon":1}`, 2},
		{"/v1/session/start", string(startBody), engineStart + 10},
		{"/v1/log", `{"session_id":"alloc-log","qoe":1.5,"avg_bitrate_kbps":1000,"rebuffer_seconds":0.5,"startup_seconds":1,"strategy":"mpc"}`, 23},
	} {
		br := strings.NewReader(tc.body)
		req := httptest.NewRequest(http.MethodPost, tc.path, br)
		req.Header.Set("Content-Type", "application/json")
		body := io.NopCloser(br)
		w := &benchWriter{h: make(http.Header, 4)}
		run := func() {
			br.Reset(tc.body)
			req.Body = body
			w.buf = w.buf[:0]
			h.ServeHTTP(w, req)
		}
		run() // warm pools and lazily built metric handles
		if allocs := testing.AllocsPerRun(300, run); allocs > tc.max {
			t.Errorf("POST %s allocates %v per request, want <= %v", tc.path, allocs, tc.max)
		}
	}
}
