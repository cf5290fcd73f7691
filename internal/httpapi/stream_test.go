package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

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
// naming the protocol, as a MsgError frame like every /v2 refusal.
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
