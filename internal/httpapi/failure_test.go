package httpapi

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// deadServerURL returns a URL nothing listens on.
func deadServerURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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

// TestStalledBodyIsDisconnected: the data-path lanes run outside
// TimeoutHandler, so what bounds a client that sends its headers and half a
// body and then goes quiet is the read deadline the front dispatcher arms.
// Both lanes must drop the connection after RequestTimeout, leave no
// goroutine behind, and keep serving other connections meanwhile. (Behind
// TimeoutHandler /v1/predict answered 503 to a client that was not reading
// and kept the connection's goroutine blocked on the body; /v2 had no bound.)
func TestStalledBodyIsDisconnected(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	cfg := DefaultServerConfig()
	cfg.RequestTimeout = 200 * time.Millisecond
	srv.SetConfig(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	good := NewClient(ts.URL)
	if _, err := good.ObserveAndPredict("s1", 1, 1); err != nil { // opens the keep-alive connection counted in the baseline
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	frame := wire.AppendOp(nil, wire.Op{SessionID: []byte("s1"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true})
	for _, tc := range []struct{ path, contentType, body string }{
		{"/v1/predict", "application/json", `{"session_id":"s1","observed_mbps":2.5,"horizon":1}`},
		{"/v2/observe", wire.ContentType, string(frame)},
	} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
			tc.path, tc.contentType, len(tc.body), tc.body[:len(tc.body)/2])
		if _, err := good.ObserveAndPredict("s1", 1, 1); err != nil {
			t.Errorf("%s: a well-behaved request beside the stalled one: %v", tc.path, err)
		}
		// Whatever the server says first, the connection must then close.
		_ = conn.SetReadDeadline(sent.Add(5 * time.Second))
		_, err = io.Copy(io.Discard, conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: still connected %v after stalling: %v", tc.path, time.Since(sent), err)
		}
		if took := time.Since(sent); took < cfg.RequestTimeout || took > 10*cfg.RequestTimeout {
			t.Errorf("%s: disconnected after %v, want about %v", tc.path, took, cfg.RequestTimeout)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the stalled requests", runtime.NumGoroutine(), baseline)
		}
	}
}
