package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// runServer serves srv through Run on a loopback port until the test ends,
// and returns its base URL.
func runServer(tb testing.TB, srv *Server) string {
	tb.Helper()
	base := deadServerURL(tb)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- srv.Run(ctx, strings.TrimPrefix(base, "http://"), 5*time.Second) }()
	tb.Cleanup(func() {
		cancel()
		if err := <-ran; err != nil {
			tb.Error(err)
		}
	})
	for deadline := time.Now().Add(5 * time.Second); NewClient(base).Healthz() != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatal("server never came up")
		}
	}
	return base
}

// rawPost is a POST as the Go client writes it.
func rawPost(path, contentType string, body []byte) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: %d\r\nContent-Type: %s\r\nAccept-Encoding: gzip\r\n\r\n%s",
		path, len(body), contentType, body)
}

// laneSeeds are requests the lane must answer as net/http does: the six
// player routes as the Go client sends them, and heads it must hand over.
func laneSeeds() []string {
	op := wire.Op{SessionID: []byte("fz-lane"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true}
	start, _ := appendStartRequest(nil, "fz-lane", trace.Features{ISP: "ISP-00", City: "City-00-00"}, 1700000000)
	predict := rawPost("/v1/predict", "application/json", []byte(`{"session_id":"fz-lane","observed_mbps":2.5,"horizon":1}`))
	const head = "POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
	return []string{
		rawPost("/v1/session/start", "application/json", start),
		predict,
		rawPost("/v1/log", "application/json", []byte(`{"session_id":"fz-lane","qoe":1.5}`)),
		rawPost("/v2/observe", wire.ContentType, wire.AppendOp(nil, op)),
		rawPost("/v2/predict", wire.ContentType, wire.AppendOp(nil, wire.Op{SessionID: []byte("fz-lane"), Horizon: 3})),
		rawPost("/v2/batch", wire.ContentType, wire.AppendBatch(nil, []wire.Op{op, {SessionID: []byte("gone"), Horizon: 1}})),
		head + "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		head + "Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		head + "Content-Length: +5\r\n\r\n{}abc",
		head + "X-Fold: a\r\n b\r\nContent-Length: 2\r\n\r\n{}",
		"POST /v1/predict HTTP/1.1\nHost: x\nContent-Length: 2\n\n{}",
		"POST /v1/predict HTTP/1.0\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
		head + "Expect: 100-continue\r\nContent-Length: 2\r\n\r\n{}",
		"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
		predict + "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n",
		predict + "\r\n" + predict, // net/http skips CR and LF after a POST
		predict + "0",              // and closes on fewer than four bytes
	}
}

// uptime is the one field of a reply that differs between two servers.
var uptime = regexp.MustCompile(`"uptime_s":[-+.e0-9]+`)

// exchange writes in to addr in one go, half-closes, and renders every reply
// until the server closes: status, headers but Date, framing, and body.
func exchange(t *testing.T, addr string, in []byte) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	go func() { // written while replies are read, so neither direction's buffers can fill
		_, _ = conn.Write(in)
		_ = conn.(*net.TCPConn).CloseWrite()
	}()
	var b strings.Builder
	for br := bufio.NewReader(conn); ; {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return b.String()
		}
		body, err := io.ReadAll(resp.Body)
		resp.Header.Del("Date")
		if uptime.Match(body) { // a healthz reply: its length moves with the uptime
			body = uptime.ReplaceAll(body, []byte(`"uptime_s":0`))
			resp.Header.Del("Content-Length")
			resp.ContentLength = 0
		}
		keys := make([]string, 0, len(resp.Header))
		for k := range resp.Header {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s length=%d te=%v close=%v body=%q err=%v\n", resp.Status, resp.ContentLength, resp.TransferEncoding, resp.Close, body, err != nil)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s: %q\n", k, resp.Header[k])
		}
	}
}

// FuzzLaneRequests holds the lane to net/http on arbitrary bytes: a server
// run through Run answers any request sequence — pipelined, malformed, or
// handed over mid-connection — with the same replies, Date aside, as the same
// Server's Handler behind a plain http.Server, and closes where it closes.
func FuzzLaneRequests(f *testing.F) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	lane := strings.TrimPrefix(runServer(f, srv), "http://")
	std := httptest.NewServer(srv.Handler())
	f.Cleanup(std.Close)
	for _, seed := range laneSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		before := srv.PanicCount()
		if got, want := exchange(t, lane, in), exchange(t, std.Listener.Addr().String(), in); got != want {
			t.Fatalf("input %q\nlane answered:\n%s\nnet/http answered:\n%s", in, got, want)
		}
		if srv.PanicCount() != before {
			t.Fatalf("a handler panicked on %q", in)
		}
	})
}

// TestLaneHandoffMidConnection: one keep-alive connection carries a lane
// POST, then a GET the lane hands to net/http, then another POST, which
// net/http now serves — all three answered, none on a new connection, and
// both POSTs counted under the same route and status labels.
func TestLaneHandoffMidConnection(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	base := runServer(t, srv)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	owned := func() int {
		srv.connMu.Lock()
		defer srv.connMu.Unlock()
		return len(srv.conns)
	}
	predict := rawPost("/v1/predict", "application/json", []byte(`{"session_id":"s1","observed_mbps":2.5,"horizon":1}`))
	for i, tc := range []struct {
		req, body string
		owned     int // connections the lane holds after the reply
	}{
		{predict, `{"prediction_mbps":3.5}` + "\n", 1},
		{"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n", `"status":"ok"`, 0},
		{predict, `{"prediction_mbps":3.5}` + "\n", 0},
	} {
		if _, err := io.WriteString(conn, tc.req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.body) || resp.Close {
			t.Errorf("request %d: %s %q close=%v, want 200 with %q, kept alive", i, resp.Status, body, resp.Close, tc.body)
		}
		if n := owned(); n != tc.owned {
			t.Errorf("after request %d the lane holds %d connections, want %d", i, n, tc.owned)
		}
	}
	var scrape strings.Builder
	_ = reg.WritePrometheus(&scrape)
	samples, err := obs.ParseText(strings.NewReader(scrape.String()))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`cs2p_http_requests_total{code="200",route="/v1/predict"}`:         2,
		`cs2p_http_wire_requests_total{format="json",route="/v1/predict"}`: 2,
		`cs2p_http_request_seconds_count{route="/v1/predict"}`:             2,
	} {
		if got, _ := obs.SampleValue(samples, key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestRunClosesLaneAfterItsReply is TestRunClosesStreamsAfterTheirReply for
// a lane: a request in flight at shutdown gets its reply, saying the
// connection closes, before Run returns and the connection closes; a lane
// that has half a head is closed at once, not a RequestTimeout later.
func TestRunClosesLaneAfterItsReply(t *testing.T) {
	predict := rawPost("/v1/predict", "application/json", []byte(`{"session_id":"s1","observed_mbps":2.5,"horizon":1}`))
	for _, tc := range []struct {
		name, send string
		inFlight   bool // the request reaches the backend, and gets its reply
	}{
		{"a request in flight", predict, true},
		{"half a head", predict[:40], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.WriteString(conn, tc.send); err != nil {
				t.Fatal(err)
			}
			if tc.inFlight {
				<-b.entered
			} else {
				time.Sleep(100 * time.Millisecond) // the lane reads the half head and arms its deadline
			}
			cancel()
			br := bufio.NewReader(conn)
			if tc.inFlight {
				select {
				case err := <-ran:
					t.Fatalf("Run returned (%v) with a request in flight", err)
				case <-time.After(100 * time.Millisecond):
				}
				close(b.release)
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					t.Fatalf("the in-flight request: %v", err)
				}
				body, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK || !resp.Close {
					t.Errorf("the in-flight request: %s %q close=%v, want 200 and Connection: close", resp.Status, body, resp.Close)
				}
			}
			select {
			case err := <-ran:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("Run is still waiting for the lane")
			}
			if n, err := br.Read(make([]byte, 1)); n != 0 || err == nil {
				t.Errorf("the connection is still open after shutdown (read %d, %v)", n, err)
			}
		})
	}
}

// TestArmReadKeepsRunsDeadline: once Run has ended its connections, a lane or
// stream that arms its read deadline must not lift the one Run set to wake it,
// or Run would wait a RequestTimeout past its grace.
func TestArmReadKeepsRunsDeadline(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	cfg := DefaultServerConfig()
	cfg.RequestTimeout = 2 * time.Second
	srv.SetConfig(cfg)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	srv.closeConns(time.Now()) // what Run does at shutdown, here with no connections
	_ = a.SetReadDeadline(time.Now())
	srv.armRead(a)
	start := time.Now()
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) || time.Since(start) > time.Second {
		t.Errorf("a read after shutdown returned %v after %v, want a deadline already passed", err, time.Since(start))
	}
}

// TestLaneStalledBodiesHoldWhatArrived: a lane takes a body's bytes as they
// arrive, so connections that declare the largest body a server takes and
// send one byte of it hold next to nothing, not MaxBodyBytes each.
func TestLaneStalledBodiesHoldWhatArrived(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	addr := strings.TrimPrefix(runServer(t, srv), "http://")
	const conns = 32
	head := fmt.Sprintf("POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n{", srv.cfg.MaxBodyBytes)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for range conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, head); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		srv.connMu.Lock()
		n := len(srv.conns)
		srv.connMu.Unlock()
		if n == conns {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d of %d connections reached a lane", n, conns)
		}
	}
	time.Sleep(100 * time.Millisecond) // every lane is now waiting for the rest of its body
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grown := int64(ms.HeapAlloc) - int64(before); grown > conns*srv.cfg.MaxBodyBytes/8 {
		t.Errorf("%d stalled bodies grew the heap by %d bytes, want well under %d each", conns, grown, srv.cfg.MaxBodyBytes)
	}
}

// TestLaneUnreadBodyClosesAsNetHTTP: a /v2 route that refuses a request
// before reading its body — a wrong content type, a bad frame header — leaves
// the body unread. net/http closes the connection after the reply when 256
// KiB or more of it is left, rather than read it, and keeps it otherwise; a
// lane, which has read the body already, does the same, so the request
// pipelined behind it is answered, or not, alike.
func TestLaneUnreadBodyClosesAsNetHTTP(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	lane := strings.TrimPrefix(runServer(t, srv), "http://")
	std := httptest.NewServer(srv.Handler())
	defer std.Close()
	next := rawPost("/v1/predict", "application/json", []byte(`{"session_id":"s1","observed_mbps":2.5,"horizon":1}`))
	for _, tc := range []struct {
		contentType string
		size        int
		close       bool
	}{
		{"application/json", 300 << 10, true},
		{"application/json", 100 << 10, false},
		{wire.ContentType, 300 << 10, true},
		{wire.ContentType, 100 << 10, false},
	} {
		body := bytes.Repeat([]byte{'x'}, tc.size) // not JSON, and no frame's magic
		in := []byte(rawPost("/v2/observe", tc.contentType, body) + next)
		got, want := exchange(t, lane, in), exchange(t, std.Listener.Addr().String(), in)
		if got != want {
			t.Errorf("%s, %d bytes: the lane answered\n%s\nnet/http answered\n%s", tc.contentType, tc.size, got, want)
		}
		if closed := !strings.Contains(want, "200 OK"); closed != tc.close {
			t.Errorf("%s, %d bytes: net/http closed=%v, the test expects %v:\n%s", tc.contentType, tc.size, closed, tc.close, want)
		}
	}
}

// TestLaneReplyBytesMatchNetHTTP: for each of the six routes, a lane's reply
// is net/http's byte for byte, Date aside — status line, the handler's headers
// in net/http's order, then Date, Content-Length and Connection.
func TestLaneReplyBytesMatchNetHTTP(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	lane := strings.TrimPrefix(runServer(t, srv), "http://")
	std := httptest.NewServer(srv.Handler())
	defer std.Close()
	date := regexp.MustCompile("\r\nDate: [^\r]*")
	raw := func(addr, req string) string {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(conn)
		return date.ReplaceAllString(string(reply), "")
	}
	for _, seed := range laneSeeds()[:6] {
		// The request ID comes back as a second handler header, whose order
		// beside Content-Type is net/http's to set.
		req := strings.Replace(seed, "\r\n", "\r\nConnection: close\r\n"+obs.RequestIDHeader+": lane-bytes\r\n", 1)
		if got, want := raw(lane, req), raw(std.Listener.Addr().String(), req); got != want {
			t.Errorf("%s: the lane answered\n%q\nnet/http answered\n%q", strings.SplitN(seed, "\r\n", 2)[0], got, want)
		}
	}
}

// TestClientPOSTsRideTheLane: a player's Client — Healthz first, then per
// session a start, a model fetch, observes and a log — has every POST served
// by a lane. Its one-off GETs close their connection; kept alive, each would
// hand the connection the POSTs share to net/http for good.
func TestClientPOSTsRideTheLane(t *testing.T) {
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	base := runServer(t, srv)
	var laned atomic.Int64
	stack := srv.stack.Load().(http.HandlerFunc)
	srv.stack.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(*memCall); ok {
			laned.Add(1)
		}
		stack(w, r)
	}))
	c := NewClient(base)
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	f := trace.Features{ISP: "ISP-00", City: "City-00-00"}
	posts := 0
	for i := range 2 {
		id := fmt.Sprintf("lane-%d", i)
		if _, err := c.StartSession(id, f, 1700000000); err != nil {
			t.Fatal(err)
		}
		_, _ = c.FetchLocalPredictor(f) // a 501 here: no model to export, but the GET went out
		for range 3 {
			if _, err := c.ObserveAndPredict(id, 2.5, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Log(engine.SessionLog{SessionID: id}); err != nil {
			t.Fatal(err)
		}
		posts += 5
	}
	if n := laned.Load(); n != int64(posts) {
		t.Errorf("a lane served %d of the client's %d POSTs", n, posts)
	}
}

// TestLaneAllocFloor pins what a warm lane request allocates, process-wide,
// at the values measured when the lane landed: the request's head as one
// string is the lane's only allocation — the request, its header map and the
// writer are pooled, and the Date value is formatted at most once a second —
// and the binary route's handler adds the one it makes behind any carrier.
func TestLaneAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors are not exact under the race detector")
	}
	srv := NewServer(fixedBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	base := runServer(t, srv)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	op := wire.Op{SessionID: []byte("s1"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true}
	for _, tc := range []struct {
		req string
		max float64
	}{
		{rawPost("/v1/predict", "application/json", []byte(`{"session_id":"s1","observed_mbps":2.5,"horizon":1}`)), 1},
		{rawPost("/v2/observe", wire.ContentType, wire.AppendOp(nil, op)), 2},
	} {
		req, reply := []byte(tc.req), make([]byte, 4096)
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		n := 0 // the reply's length: its head, then Content-Length more
		for end := -1; end < 0 || n < end; {
			m, err := conn.Read(reply[n:])
			if err != nil {
				t.Fatal(err)
			}
			if n += m; end < 0 {
				if i := bytes.Index(reply[:n], []byte("\r\n\r\n")); i >= 0 {
					cl := regexp.MustCompile(`Content-Length: (\d+)`).FindSubmatch(reply[:i])
					size, _ := strconv.Atoi(string(cl[1]))
					end = i + 4 + size
				}
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			_, _ = conn.Write(req)
			_, _ = io.ReadFull(conn, reply[:n])
		})
		if allocs > tc.max {
			t.Errorf("a lane request allocates %v, want <= %v:\n%s", allocs, tc.max, req)
		}
	}
}
