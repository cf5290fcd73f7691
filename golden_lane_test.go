package cs2p_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/video"
)

// runOnLoopback serves run — a Server's or a Router's Run, so every
// connection starts in a lane — on a free loopback port until the test ends,
// and returns its base URL.
func runOnLoopback(t *testing.T, run func(context.Context, string, time.Duration) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- run(ctx, addr, 5*time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-ran; err != nil {
			t.Error(err)
		}
	})
	base := "http://" + addr
	for deadline := time.Now().Add(5 * time.Second); httpapi.NewClient(base).Healthz() != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
	}
	return base
}

// parityTransport sends every request to the server it names and to twin, a
// net/http server of an identical backend, and fails the test unless the two
// replies match: status, headers but Date, and body.
type parityTransport struct {
	t    *testing.T
	twin string // host:port
}

func (p parityTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
	}
	twin := req.Clone(req.Context())
	twin.URL.Host, twin.Host = p.twin, p.twin
	var replies [2]*http.Response
	var bodies [2][]byte
	for i, r := range []*http.Request{req, twin} {
		r.Body = io.NopCloser(bytes.NewReader(body))
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Header.Del("Date")
		replies[i] = resp
	}
	lane, std := replies[0], replies[1]
	if lane.StatusCode != std.StatusCode || !reflect.DeepEqual(lane.Header, std.Header) || !bytes.Equal(bodies[0], bodies[1]) {
		p.t.Errorf("%s %s: the lane answered %d %v %q, net/http %d %v %q", req.Method, req.URL.Path,
			lane.StatusCode, lane.Header, bodies[0], std.StatusCode, std.Header, bodies[1])
	}
	lane.Body = io.NopCloser(bytes.NewReader(bodies[0]))
	return lane, nil
}

// TestGoldenReplayLane is TestGoldenReplay and TestGoldenReplayWireParity
// served through Run: the golden protocol over JSON v1, single-op binary v2
// and batched v2 renders the unedited golden file, and every reply equals, Date
// aside, the one a net/http server of an identical backend gives the same
// request.
func TestGoldenReplayLane(t *testing.T) {
	if testing.Short() {
		t.Skip("lane replay trains a model; slow for -short")
	}
	d, train, test, ecfg, eng := trainGolden(t)
	newServer := func() *httpapi.Server {
		svc := engine.NewServiceWithOptions(eng, ecfg, video.Default(), engine.ServiceOptions{Shards: 1})
		srv := httpapi.NewServer(svc, (*core.Engine).Store)
		srv.SetLogf(func(string, ...any) {})
		return srv
	}
	base := runOnLoopback(t, newServer().Run)
	twin := httptest.NewServer(newServer().Handler())
	defer twin.Close()
	header := fmt.Sprintf("trace sessions=%d train=%d test=%d clusters=%d\n",
		d.Len(), train.Len(), test.Len(), eng.Clusters())
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatal(err)
	}
	client := func(binary bool) *httpapi.Client {
		c := httpapi.NewClientWith(base, &http.Client{Transport: parityTransport{t, twin.Listener.Addr().String()}})
		c.SetWireBinary(binary)
		return c
	}
	for _, tc := range []struct {
		name  string
		drive func() string
	}{
		{"JSON v1", func() string { return driveReplayWith(t, client(false), header, test) }},
		{"binary v2", func() string { return driveReplayWith(t, client(true), header, test) }},
		{"batched v2", func() string { return driveReplayBatched(t, client(false), header, test, nil) }},
	} {
		if got := tc.drive(); got != string(want) {
			t.Errorf("%s replay through the lane diverged from the golden file\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}

// TestGoldenReplayClusterParityLane is TestGoldenReplayClusterParity with the
// router's front door served through its Run, lane and all.
func TestGoldenReplayClusterParityLane(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster parity trains a model and boots three replicas; slow for -short")
	}
	rt, _, header, test := bootGoldenCluster(t)
	base := runOnLoopback(t, rt.Run)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatal(err)
	}
	bc := httpapi.NewClient(base)
	bc.SetWireBinary(true)
	for _, tc := range []struct{ name, got string }{
		{"JSON v1", driveReplayWith(t, httpapi.NewClient(base), header, test)},
		{"binary v2", driveReplayWith(t, bc, header, test)},
		{"batched v2", driveReplayBatched(t, httpapi.NewClient(base), header, test, nil)},
	} {
		if tc.got != string(want) {
			t.Errorf("cluster %s replay through the router's lane diverged from the golden file\ngot:\n%s\nwant:\n%s", tc.name, tc.got, want)
		}
	}
	if n := rt.PanicCount(); n != 0 {
		t.Errorf("%d router handler panics during golden replay", n)
	}
}
