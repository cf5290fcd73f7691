package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// streamPost sends one POST /v2/batch body through rt and returns the reply.
func streamPost(t *testing.T, rt http.RoundTripper, base string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v2/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header["Content-Type"] = wireContentType
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestStreamRepliesEqualBatchReplies: on the stream, a batch is answered
// with the very bytes POST /v2/batch answers it with, a malformed frame
// included — two carriers, one pipeline.
func TestStreamRepliesEqualBatchReplies(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := NewStreamTransport()
	defer st.(interface{ CloseIdleConnections() }).CloseIdleConnections()
	for _, body := range [][]byte{
		wire.AppendBatch(nil, []wire.Op{
			{SessionID: []byte("s1"), ObservedMbps: 1.25, Horizon: 1, HasObserve: true, WantState: true},
			{SessionID: []byte("gone"), Horizon: 4},
		}),
		wire.AppendBatch(nil, []wire.Op{{SessionID: []byte("s2"), Horizon: 2}}),
		wire.AppendOp(nil, wire.Op{SessionID: []byte("s1"), Horizon: 1}), // not a batch: MsgError, stream closed
		wire.AppendBatch(nil, []wire.Op{{SessionID: []byte("s3"), ObservedMbps: 3, Horizon: 1, HasObserve: true}}),
	} {
		wantStatus, want := postRawWire(t, ts.URL+"/v2/batch", wire.ContentType, body)
		status, got := streamPost(t, st, ts.URL, body)
		if status != wantStatus.StatusCode || !bytes.Equal(got, want) {
			t.Errorf("stream answered %d %x, /v2/batch %d %x", status, got, wantStatus.StatusCode, want)
		}
	}
}

// TestStreamUpgradeRequired: GET /v2/stream without the upgrade is a 426
// naming the protocol, as a MsgError frame like every /v2 refusal — and so is
// a call frame naming it on an open stream, which stays open.
func TestStreamUpgradeRequired(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	f, err := wire.DecodeFrame(raw, wire.DefaultLimits())
	if err != nil || f.Type != wire.MsgError || resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != streamProto {
		t.Fatalf("%d Upgrade %q, frame %x (%v); want 426 naming %s and a MsgError", resp.StatusCode, resp.Header.Get("Upgrade"), raw, err, streamProto)
	}
	if code, _, _ := wire.DecodeError(f.Payload); code != http.StatusUpgradeRequired {
		t.Errorf("frame carries %d, want 426", code)
	}

	conn, br := dialStream(t, ts.Listener.Addr().String())
	var reply []byte
	for i := 0; i < 2; i++ {
		fmt.Fprintf(conn, "%s", wire.AppendCall(nil, "GET "+streamPath, nil))
		f, err := readWireFrame(br, &reply, wire.Limits{})
		if err != nil || f.Type != wire.MsgCallResult {
			t.Fatalf("call %d: reply %x (%v), want a call result", i, reply, err)
		}
		if code, body, _ := wire.DecodeCallResult(f.Payload); code != http.StatusUpgradeRequired || !bytes.Equal(body, raw) {
			t.Errorf("call %d: %d %x, want the 426 GET answers: %x", i, code, body, raw)
		}
	}
}

// dialStream opens a stream to addr, upgraded.
func dialStream(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", streamPath, streamProto)
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v", err)
	}
	return conn, br
}

// TestStreamCallsEqualHTTPReplies: every route the stream transport carries
// as a call — start, log, state PUT and DELETE, admin drain — answers with the
// status and body bytes it answers over HTTP: on success, malformed JSON, an
// oversize body, an unknown session, the import guard's refusal, a backend
// without the surface, a wrong method, and an id "a/b" sent as "a%2Fb". Each
// call goes to twin servers, one over HTTP and one over the transport, and one
// stream carries every call: it stays open after each non-2xx reply.
func TestStreamCallsEqualHTTPReplies(t *testing.T) {
	ensureEnv()
	s := envTest.Sessions[1]
	ref := engine.NewService(envEngine, envCfg, video.Default())
	ref.StartSession("a/b", s.Features, s.StartUnix)
	ref.ObserveAndPredict("a/b", s.Throughput[0], 1)
	st, err := ref.ExportSession("a/b")
	if err != nil {
		t.Fatal(err)
	}
	state, _ := json.Marshal(st)
	st.Schema++
	otherSchema, _ := json.Marshal(st)
	start, _ := json.Marshal(StartRequest{SessionID: "c1", Features: s.Features, StartUnix: s.StartUnix})
	logBody, _ := json.Marshal(engine.SessionLog{SessionID: "c1"})
	oversize := []byte(`{"session_id":"` + strings.Repeat("x", 5000) + `"}`)

	type call struct {
		method, path string
		body         []byte
		want         int
	}
	for _, tc := range []struct {
		name  string
		svc   func() SessionService
		calls []call
	}{
		{"engine", func() SessionService { return engine.NewService(envEngine, envCfg, video.Default()) }, []call{
			{http.MethodPost, "/v1/session/start", start, http.StatusOK},
			{http.MethodPost, "/v1/session/start", []byte(`{"session_id":`), http.StatusBadRequest},
			{http.MethodPost, "/v1/session/start", oversize, http.StatusRequestEntityTooLarge},
			{http.MethodPost, "/v1/log", logBody, http.StatusNoContent},
			{http.MethodPost, "/v1/log", []byte(`[`), http.StatusBadRequest},
			{http.MethodPut, "/v1/log", logBody, http.StatusMethodNotAllowed},
			{http.MethodPut, "/v1/session/a%2Fb/state", otherSchema, http.StatusConflict},
			{http.MethodPut, "/v1/session/a%2Fb/state", state, http.StatusNoContent},
			{http.MethodDelete, "/v1/session/a%2Fb/state", nil, http.StatusNoContent},
			{http.MethodDelete, "/v1/session/a%2Fb/state", nil, http.StatusNotFound},
			{http.MethodPost, "/v1/admin/drain", []byte(`{"draining":true}`), http.StatusNoContent},
		}},
		{"bare", func() SessionService { return bareSessionService{} }, []call{
			{http.MethodPut, "/v1/session/a%2Fb/state", state, http.StatusNotImplemented},
			{http.MethodDelete, "/v1/session/a%2Fb/state", nil, http.StatusNotImplemented},
			{http.MethodPost, "/v1/admin/drain", []byte(`{"draining":true}`), http.StatusNotImplemented},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func() (string, *obs.Registry) {
				srv := NewServer(tc.svc(), nil)
				srv.SetLogf(func(string, ...any) {})
				cfg := DefaultServerConfig()
				cfg.MaxBodyBytes = 4096
				srv.SetConfig(cfg)
				reg := obs.NewRegistry()
				srv.SetMetrics(reg)
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				return ts.URL, reg
			}
			overHTTP, _ := serve()
			overStream, reg := serve()
			streams := NewStreamTransport()
			defer streams.(interface{ CloseIdleConnections() }).CloseIdleConnections()
			send := func(rt http.RoundTripper, base string, c call) (int, []byte) {
				var body io.Reader
				if c.body != nil {
					body = bytes.NewReader(c.body)
				}
				req, err := http.NewRequest(c.method, base+c.path, body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := rt.RoundTrip(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				reply, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, reply
			}
			for _, c := range tc.calls {
				wantStatus, want := send(http.DefaultTransport, overHTTP, c)
				status, got := send(streams, overStream, c)
				if wantStatus != c.want || status != wantStatus || !bytes.Equal(got, want) {
					t.Errorf("%s %s: stream answered %d %q, HTTP %d %q; want %d", c.method, c.path, status, got, wantStatus, want, c.want)
				}
			}
			frames := reg.Counter("cs2p_http_wire_requests_total", "", obs.Labels{"format": "binary", "route": streamPath}).Value()
			upgrades := reg.Counter("cs2p_http_requests_total", "", obs.Labels{"route": streamPath, "code": "101"}).Value()
			if frames != uint64(len(tc.calls)) || upgrades != 1 {
				t.Errorf("%d call frames on %d streams, want %d on 1", frames, upgrades, len(tc.calls))
			}
		})
	}
}

// TestIdleStreamHoldsNoScratch: a stream holds its frame buffers only while
// it serves a frame, so peers that each send one big batch and then go quiet
// pin none of them — what stays is about a connection's worth per stream.
func TestIdleStreamHoldsNoScratch(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ops := make([]wire.Op, 1024)
	for i := range ops {
		ops[i] = wire.Op{SessionID: bytes.Repeat([]byte{'a' + byte(i%26)}, 200), Horizon: 1}
	}
	frame := wire.AppendBatch(nil, ops)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the pools
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const streams = 8
	var reply []byte
	before := heap()
	for i := 0; i < streams; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n%s", streamPath, streamProto, frame)
		br := bufio.NewReader(conn)
		if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade: %v", err)
		}
		if f, err := readWireFrame(br, &reply, wire.Limits{}); err != nil || f.Type != wire.MsgBatchResult {
			t.Fatalf("reply %v (%v), want a batch result", f.Type, err)
		}
	}
	grew := heap() - before
	t.Logf("%d idle streams: heap %+d bytes", streams, grew)
	if grew > streams*int64(len(frame))/2 {
		t.Errorf("%d idle streams hold %d more heap bytes; one frame is %d", streams, grew, len(frame))
	}
}

// gatedBackend holds every batch until released, so a test can catch a
// frame in flight.
type gatedBackend struct {
	fixedBackend
	entered, release chan struct{}
}

func (b gatedBackend) ServeBatch(ops []wire.Op, res []wire.OpResult) uint64 {
	b.entered <- struct{}{}
	<-b.release
	return b.fixedBackend.ServeBatch(ops, res)
}

// TestRunClosesStreamsAfterTheirReply: hijacked connections escape
// http.Server.Shutdown, so Run closes open streams itself — but not under a
// frame in flight: its reply is written first, and only then does Run
// return and the stream close.
func TestRunClosesStreamsAfterTheirReply(t *testing.T) {
	base := deadServerURL(t)
	b := gatedBackend{entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(b, nil)
	srv.SetLogf(func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- srv.Run(ctx, strings.TrimPrefix(base, "http://"), 5*time.Second) }()
	for deadline := time.Now().Add(5 * time.Second); NewClient(base).Healthz() != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
	}

	st := NewStreamTransport()
	frame := wire.AppendBatch(nil, []wire.Op{{SessionID: []byte("s1"), ObservedMbps: 1, Horizon: 1, HasObserve: true}})
	call := func() ([]byte, error) {
		req, _ := http.NewRequest(http.MethodPost, base+"/v2/batch", bytes.NewReader(frame))
		resp, err := st.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	replied := make(chan error, 1)
	go func() {
		reply, err := call()
		if f, ferr := wire.DecodeFrame(reply, wire.DefaultLimits()); err == nil && (ferr != nil || f.Type != wire.MsgBatchResult) {
			err = fmt.Errorf("reply %x is not a batch result", reply)
		}
		replied <- err
	}()
	<-b.entered
	cancel()
	select {
	case err := <-ran:
		t.Fatalf("Run returned (%v) with a frame in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(b.release)
	if err := <-replied; err != nil {
		t.Fatalf("the in-flight frame: %v", err)
	}
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	if _, err := call(); err == nil {
		t.Error("a call on the pooled stream succeeded after shutdown closed it")
	}
}
