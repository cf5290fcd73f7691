package cs2p_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/faultinject"
	"cs2p/internal/httpapi"
	"cs2p/internal/registry"
	"cs2p/internal/router"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

// bootGoldenCluster trains the golden model, publishes it once, and boots
// three artifact-served replicas behind a router — the shared fixture for
// the cluster-parity and drain-parity golden tests. Returns the router, the
// front-end server, the golden header line, and the test split.
func bootGoldenCluster(t *testing.T) (*router.Router, *httptest.Server, string, *trace.Dataset) {
	t.Helper()
	return bootGoldenClusterVia(t, nil)
}

// bootGoldenClusterVia is bootGoldenCluster with the router→replica hop
// routed through transport (nil = the router's own client over the stream
// carrier), so a test can take replicas away.
func bootGoldenClusterVia(t *testing.T, transport http.RoundTripper) (*router.Router, *httptest.Server, string, *trace.Dataset) {
	t.Helper()
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 300
	d, _ := tracegen.Generate(cfg)
	cut := d.Sessions[d.Len()*2/3].Start()
	train, test := d.SplitByTime(cut)
	ecfg := core.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	ecfg.HMM.NStates = 3
	ecfg.HMM.MaxIters = 12
	eng, err := core.Train(train, ecfg)
	if err != nil {
		t.Fatal(err)
	}

	// Trainer side: one published artifact.
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(eng.Store(), core.TrainingMeta{
		TrainedAtUnix: 1700000000,
		TraceSessions: train.Len(),
		Clusters:      eng.Clusters(),
	}); err != nil {
		t.Fatal(err)
	}

	// Serving side: three replicas, each booted from the registry alone.
	var replicas []string
	for i := 0; i < 3; i++ {
		art, err := reg.Latest()
		if err != nil {
			t.Fatal(err)
		}
		svc, err := engine.NewServiceFromArtifact(art, ecfg, video.Default(), engine.ServiceOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := httpapi.NewServer(svc, (*core.Engine).Store)
		srv.SetLogf(func(string, ...any) {})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		replicas = append(replicas, ts.URL)
	}
	rcfg := router.Config{Replicas: replicas, Logf: func(string, ...any) {}}
	if transport != nil {
		rcfg.NewClient = func(base string) *httpapi.Client {
			return httpapi.NewClientWith(base, &http.Client{Transport: transport})
		}
	}
	rt, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeAll(context.Background())
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	header := fmt.Sprintf("trace sessions=%d train=%d test=%d clusters=%d\n",
		d.Len(), train.Len(), test.Len(), eng.Clusters())
	return rt, front, header, test
}

// TestGoldenReplayClusterParity pins the serving-tier transparency
// contract: three cs2p-server replicas booted from one registry artifact,
// fronted by the consistent-hash router, must replay the golden protocol
// bit-identically to a single train-at-startup process — over JSON v1,
// single-op binary v2, and batched v2 alike. The fault-tolerant tier is
// allowed to change where a session's filter lives, never what it answers.
func TestGoldenReplayClusterParity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster parity trains a model and boots three replicas; slow for -short")
	}
	rt, front, header, test := bootGoldenCluster(t)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}

	jsonGot := driveReplay(t, front, header, test)
	if jsonGot != string(want) {
		t.Errorf("cluster JSON v1 replay diverged from the single-process golden file\ngot:\n%s\nwant:\n%s",
			jsonGot, string(want))
	}
	bc := httpapi.NewClient(front.URL)
	bc.SetWireBinary(true)
	binGot := driveReplayWith(t, bc, header, test)
	if binGot != string(want) {
		t.Errorf("cluster binary v2 replay diverged from the golden file\ngot:\n%s\nwant:\n%s",
			binGot, string(want))
	}
	batGot := driveReplayBatched(t, httpapi.NewClient(front.URL), header, test, nil)
	if batGot != string(want) {
		t.Errorf("cluster batched v2 replay diverged from the golden file\ngot:\n%s\nwant:\n%s",
			batGot, string(want))
	}
	if n := rt.PanicCount(); n != 0 {
		t.Errorf("%d router handler panics during golden replay", n)
	}
}

// TestGoldenReplayDrainParity pins the warm-handoff contract against the
// golden file: while golden-1 is mid-session, its home replica is
// administratively drained. The handoff must be warm — the exact exported
// filter state lands on a ring successor — so the full replay, drain and
// all, renders byte-identical to testdata/golden_replay.txt. Replay
// fallback (allowed only when the source is dead) would drift the
// rendering, so the tally is asserted to be warm-only.
func TestGoldenReplayDrainParity(t *testing.T) {
	if testing.Short() {
		t.Skip("drain parity trains a model and boots three replicas; slow for -short")
	}
	rt, front, header, test := bootGoldenCluster(t)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}

	drained := false
	hook := func(i, j int) {
		if i != 1 || j != 6 {
			return
		}
		home, ok := rt.SessionHome("golden-1")
		if !ok {
			t.Fatal("session golden-1 has no home at drain time")
		}
		res, err := rt.DrainReplica(context.Background(), home)
		if err != nil {
			t.Fatalf("drain %s: %v", home, err)
		}
		if res.Warm == 0 || res.Failed != 0 {
			t.Errorf("drain tally %+v; want warm-only with a live source", res)
		}
		if h, _ := rt.SessionHome("golden-1"); h == home {
			t.Errorf("session golden-1 still homed on drained replica %s", home)
		}
		drained = true
	}
	got := driveReplayWithHook(t, httpapi.NewClient(front.URL), header, test, hook)
	if !drained {
		t.Fatal("drain hook never fired; session golden-1 played fewer than 7 chunks")
	}
	if warm, failed := rt.HandoffOutcomes(); warm == 0 || failed != 0 {
		t.Errorf("handoff outcomes warm=%d failed=%d; want warm only", warm, failed)
	}
	if got != string(want) {
		t.Errorf("drained-mid-session replay diverged from the golden file — warm handoff must be bit-identical\ngot:\n%s\nwant:\n%s",
			got, string(want))
	}
	if n := rt.PanicCount(); n != 0 {
		t.Errorf("%d router handler panics during drained golden replay", n)
	}
}

// TestGoldenReplayKillParity pins crash recovery against the golden file:
// while golden-1 is mid-session its home replica is killed outright — no
// drain, no export, the process is just gone. The router recreates the
// session on a ring successor from the state that came back with its last
// acknowledged observation, so the full replay, crash and all, renders
// byte-identical to testdata/golden_replay.txt on all three encodings.
func TestGoldenReplayKillParity(t *testing.T) {
	if testing.Short() {
		t.Skip("kill parity trains a model and boots three clusters; slow for -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	type drive func(t *testing.T, front *httptest.Server, header string, test *trace.Dataset, kill func()) string
	single := func(binary bool) drive {
		return func(t *testing.T, front *httptest.Server, header string, test *trace.Dataset, kill func()) string {
			c := httpapi.NewClient(front.URL)
			c.SetWireBinary(binary)
			return driveReplayWithHook(t, c, header, test, func(i, j int) {
				if i == 1 && j == 6 {
					kill()
				}
			})
		}
	}
	for name, drv := range map[string]drive{
		"json-v1":   single(false),
		"binary-v2": single(true),
		"batched-v2": func(t *testing.T, front *httptest.Server, header string, test *trace.Dataset, kill func()) string {
			return driveReplayBatched(t, httpapi.NewClient(front.URL), header, test, func(j int) {
				if j == 6 {
					kill()
				}
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			streams := &http.Client{Transport: httpapi.NewStreamTransport()}
			defer streams.CloseIdleConnections()
			gate := faultinject.NewHostGate(streams.Transport)
			rt, front, header, test := bootGoldenClusterVia(t, gate)
			killed := ""
			got := drv(t, front, header, test, func() {
				killed, _ = rt.SessionHome("golden-1")
				gate.SetHostDown(strings.TrimPrefix(killed, "http://"), true)
			})
			if killed == "" {
				t.Fatal("kill hook never fired; session golden-1 played fewer than 7 chunks")
			}
			if st := rt.ReplicaStates()[killed]; st == router.StateHealthy {
				t.Errorf("killed replica %s still healthy: the data path never ran into the kill", killed)
			}
			if got != string(want) {
				t.Errorf("killed-mid-session replay diverged from the golden file — recovery from state must be bit-identical\ngot:\n%s\nwant:\n%s",
					got, string(want))
			}
			if n := rt.PanicCount(); n != 0 {
				t.Errorf("%d router handler panics during killed golden replay", n)
			}
		})
	}
}
