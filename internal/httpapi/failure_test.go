package httpapi

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// deadServerURL returns a URL nothing listens on.
func deadServerURL(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient(deadServerURL(t))
	if err := c.Healthz(); err == nil {
		t.Error("healthz against a dead server should fail")
	}
	if _, err := c.StartSession("x", trace.Features{}, 0); err == nil {
		t.Error("start against a dead server should fail")
	}
	if _, err := c.ObserveAndPredict("x", 1, 1); err == nil {
		t.Error("predict against a dead server should fail")
	}
	if _, err := c.NewSessionPredictor("x", trace.Features{}, 0); err == nil {
		t.Error("predictor setup against a dead server should fail")
	}
}

// TestSessionPredictorDegradesToNaN verifies the documented fallback: if the
// server vanishes mid-session, Observe leaves a NaN prediction instead of a
// stale or bogus number, so the player can fall back to local logic.
func TestSessionPredictorDegradesToNaN(t *testing.T) {
	ts, test := testServer(t)
	c := NewClient(ts.URL)
	s := test.Sessions[0]
	p, err := c.NewSessionPredictor("degrade", s.Features, s.StartUnix)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p.Predict()) {
		t.Fatal("initial prediction should be defined")
	}
	ts.Close() // server goes away mid-session
	p.Observe(3.0)
	if !math.IsNaN(p.Predict()) {
		t.Error("prediction after a failed round trip should be NaN")
	}
	// Horizon queries also degrade to the last known value (NaN here).
	if !math.IsNaN(p.PredictAhead(3)) {
		t.Error("horizon prediction should degrade to the last known value")
	}
}

func TestHealthzWrongStatus(t *testing.T) {
	ts, _ := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL + "/v1") // wrong base -> 404 on /v1/v1/healthz
	if err := c.Healthz(); err == nil {
		t.Error("non-200 healthz should be an error")
	}
}

// intakeBackend is fixedBackend with the two body-reading control-plane
// surfaces, so a stalled ingest or state push reaches readBody.
type intakeBackend struct{ fixedBackend }

func (intakeBackend) Ingest([]*trace.Session) (engine.IngestResult, error) {
	return engine.IngestResult{}, nil
}

func (intakeBackend) ImportSession(engine.SessionState) error { return nil }

// TestStalledBodyIsDisconnected: what bounds a client that sends its headers
// and half a body and then goes quiet is the read deadline Handler arms for
// every request with a body — in a lane, the one it arms for a body not yet
// whole — and, on a stream, the one a frame arms once it has begun. What
// bounds one that stalls mid-head is the deadline a lane arms once a head has
// begun, and after a handoff net/http's ReadHeaderTimeout. Served through
// Run, every route must drop such a connection after RequestTimeout, leave no
// goroutine behind, and keep serving other connections meanwhile. (Behind the
// TimeoutHandler the control plane once had, ingest and the state push
// answered 503 and then kept the connection's goroutine blocked on the body
// with no deadline at all; and before the lane nothing bounded a head.)
func TestStalledBodyIsDisconnected(t *testing.T) {
	srv := NewServer(intakeBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	cfg := DefaultServerConfig()
	cfg.RequestTimeout = 200 * time.Millisecond
	srv.SetConfig(cfg)
	base := runServer(t, srv)
	good := NewClient(base)
	if _, err := good.ObserveAndPredict("s1", 1, 1); err != nil { // opens the keep-alive connection counted in the baseline
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	op := wire.Op{SessionID: []byte("s1"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true}
	for _, tc := range []struct{ method, path, contentType, body, head string }{
		{"POST", "/v1/predict", "application/json", `{"session_id":"s1","observed_mbps":2.5,"horizon":1}`, ""},
		{"POST", "/v2/observe", wire.ContentType, string(wire.AppendOp(nil, op)), ""},
		{"POST", "/v1/ingest", "application/json", `{"sessions":[{"session_id":"i1","throughput_mbps":[2.5,3.1]}]}`, ""},
		{"PUT", "/v1/session/s1/state", "application/json", `{"schema":1,"session_id":"s1","posterior":[0.5,0.5]}`, ""},
		// Upgraded, then half a frame: a stream has no body, but a frame
		// once begun is bounded the same way.
		{"GET", streamPath, "", string(wire.AppendBatch(nil, []wire.Op{op})),
			"GET " + streamPath + " HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: " + streamProto + "\r\n\r\n"},
		// Half a head: a lane's route, then one the lane hands over.
		{"POST", "/v1/predict", "", "", "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Len"},
		{"GET", "/v1/healthz", "", "", "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"},
	} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
			tc.method, tc.path, tc.contentType, len(tc.body))
		if tc.head != "" {
			head = tc.head
		}
		fmt.Fprint(conn, head+tc.body[:len(tc.body)/2])
		if _, err := good.ObserveAndPredict("s1", 1, 1); err != nil {
			t.Errorf("%s %s: a well-behaved request beside the stalled one: %v", tc.method, tc.path, err)
		}
		// Whatever the server says first, the connection must then close.
		_ = conn.SetReadDeadline(sent.Add(5 * time.Second))
		_, err = io.Copy(io.Discard, conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s %s: still connected %v after stalling: %v", tc.method, tc.path, time.Since(sent), err)
		}
		if took := time.Since(sent); took < cfg.RequestTimeout || took > 10*cfg.RequestTimeout {
			t.Errorf("%s %s: disconnected after %v, want about %v", tc.method, tc.path, took, cfg.RequestTimeout)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the stalled requests", runtime.NumGoroutine(), baseline)
		}
	}
}
