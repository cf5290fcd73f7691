package cs2p_test

import (
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/httpapi"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// trainGolden is the seeded tracegen -> train half of the golden pipeline:
// the 300-session trace split 2:1 by time, and the engine trained on the
// first part with the config every golden test serves it under.
func trainGolden(t *testing.T) (d, train, test *trace.Dataset, ecfg core.Config, eng *core.Engine) {
	t.Helper()
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 300
	d, _ = tracegen.Generate(cfg)
	cut := d.Sessions[d.Len()*2/3].Start()
	train, test = d.SplitByTime(cut)
	ecfg = core.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	ecfg.HMM.NStates = 3
	ecfg.HMM.MaxIters = 12
	eng, err := core.Train(train, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, train, test, ecfg, eng
}

// goldenReplay runs the seeded tracegen -> train -> serve -> player pipeline
// end to end, with the session store split into the given number of shards,
// and renders every prediction the players saw. The rendering is the
// regression contract: any drift in clustering, EM, the filter, or the HTTP
// round trip changes a line — and because prediction math lives in the
// per-session state, not the store, the string must be identical at every
// shard count. The ended sessions' QoE logs come back too, so shard
// invariance can also be asserted on the log plane.
func goldenReplay(t *testing.T, shards int) (string, []engine.SessionLog) {
	t.Helper()
	d, train, test, ecfg, eng := trainGolden(t)
	svc := engine.NewServiceWithOptions(eng, ecfg, video.Default(), engine.ServiceOptions{Shards: shards})
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	header := fmt.Sprintf("trace sessions=%d train=%d test=%d clusters=%d\n",
		d.Len(), train.Len(), test.Len(), eng.Clusters())
	return driveReplay(t, ts, header, test), svc.Logs()
}

// driveReplay runs the golden player protocol against a running server and
// renders every prediction. Both the train-at-startup and the artifact-boot
// servers are driven through this exact function, so the two renderings are
// comparable byte for byte.
func driveReplay(t *testing.T, ts *httptest.Server, header string, test *trace.Dataset) string {
	t.Helper()
	return driveReplayWith(t, httpapi.NewClient(ts.URL), header, test)
}

// driveReplayWith is driveReplay with a caller-configured client, so the
// same protocol can be driven over JSON v1 or the binary v2 encoding.
func driveReplayWith(t *testing.T, client *httpapi.Client, header string, test *trace.Dataset) string {
	t.Helper()
	return driveReplayWithHook(t, client, header, test, nil)
}

// driveReplayWithHook is driveReplayWith with a callback fired before
// session i's j-th observation — the trigger point for mid-session cluster
// surgery (drains, joins) whose output must still match the golden file.
func driveReplayWithHook(t *testing.T, client *httpapi.Client, header string, test *trace.Dataset, hook func(i, j int)) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(header)
	for i, s := range test.Sessions[:4] {
		id := fmt.Sprintf("golden-%d", i)
		start, err := client.StartSession(id, s.Features, s.StartUnix)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "session %d cluster=%s init=%.10g level=%d\n",
			i, start.ClusterID, start.InitialPredictionMbps, start.SuggestedInitialLevel)
		n := len(s.Throughput)
		if n > 12 {
			n = 12
		}
		var pred float64
		for j, w := range s.Throughput[:n] {
			if hook != nil {
				hook(i, j)
			}
			pred, err = client.ObserveAndPredict(id, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(pred) {
				t.Fatalf("session %d chunk %d: NaN prediction", i, j)
			}
			fmt.Fprintf(&b, "  s%d c%d obs=%.10g pred=%.10g\n", i, j, w, pred)
		}
		p3, err := client.PredictAt(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "session %d horizon3=%.10g\n", i, p3)
		// End the session after its last prediction (so the rendering above
		// is untouched); the QoE log lands in that session's shard ring.
		if err := client.Log(engine.SessionLog{SessionID: id, QoE: pred}); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// driveReplayBatched replays the golden protocol over /v2/batch: the four
// sessions advance in lockstep, each epoch's observations for every
// still-live session travelling in one binary batch, and the horizon-3
// queries in one final batch. Per-session prediction state is independent of
// other sessions, so the lockstep interleaving must render bit-identically
// to the sequential single-op drives. hook, when non-nil, fires before epoch
// j's batch — the trigger point for mid-session cluster surgery.
func driveReplayBatched(t *testing.T, client *httpapi.Client, header string, test *trace.Dataset, hook func(j int)) string {
	t.Helper()
	sessions := test.Sessions[:4]
	type replayState struct {
		id    string
		start engine.StartResponse
		n     int
		preds []float64
	}
	states := make([]*replayState, len(sessions))
	for i, s := range sessions {
		id := fmt.Sprintf("golden-%d", i)
		start, err := client.StartSession(id, s.Features, s.StartUnix)
		if err != nil {
			t.Fatal(err)
		}
		n := len(s.Throughput)
		if n > 12 {
			n = 12
		}
		states[i] = &replayState{id: id, start: start, n: n}
	}
	for j := 0; ; j++ {
		var ops []wire.Op
		var idx []int
		for i, st := range states {
			if j < st.n {
				ops = append(ops, wire.Op{
					SessionID:    []byte(st.id),
					ObservedMbps: sessions[i].Throughput[j],
					Horizon:      1,
					HasObserve:   true,
				})
				idx = append(idx, i)
			}
		}
		if len(ops) == 0 {
			break
		}
		if hook != nil {
			hook(j)
		}
		res, _, err := client.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range res {
			if r.Code != wire.OpOK {
				t.Fatalf("epoch %d op %d (session %s): code %d", j, k, states[idx[k]].id, r.Code)
			}
			if math.IsNaN(r.PredictionMbps) {
				t.Fatalf("epoch %d op %d: NaN prediction", j, k)
			}
			states[idx[k]].preds = append(states[idx[k]].preds, r.PredictionMbps)
		}
	}
	h3 := make([]wire.Op, len(states))
	for i, st := range states {
		h3[i] = wire.Op{SessionID: []byte(st.id), Horizon: 3}
	}
	h3res, _, err := client.Batch(h3)
	if err != nil {
		t.Fatal(err)
	}
	// Assemble the exact sequential rendering, then end each session the same
	// way driveReplayWith does.
	var b strings.Builder
	b.WriteString(header)
	for i, st := range states {
		fmt.Fprintf(&b, "session %d cluster=%s init=%.10g level=%d\n",
			i, st.start.ClusterID, st.start.InitialPredictionMbps, st.start.SuggestedInitialLevel)
		var pred float64
		for j, w := range sessions[i].Throughput[:st.n] {
			pred = st.preds[j]
			fmt.Fprintf(&b, "  s%d c%d obs=%.10g pred=%.10g\n", i, j, w, pred)
		}
		if h3res[i].Code != wire.OpOK {
			t.Fatalf("session %d horizon3 code %d", i, h3res[i].Code)
		}
		fmt.Fprintf(&b, "session %d horizon3=%.10g\n", i, h3res[i].PredictionMbps)
		if err := client.Log(engine.SessionLog{SessionID: st.id, QoE: pred}); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestGoldenReplayWireParity pins the encoding-neutrality contract of the
// /v2 binary protocol: the same trained server, driven through JSON v1,
// single-op binary v2, and batched v2, must produce bit-identical renderings
// — and all three must match the unchanged golden file. Wire framing is
// allowed to change how bytes travel, never what the model answers.
func TestGoldenReplayWireParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wire parity replay trains a model; slow for -short")
	}
	d, train, test, ecfg, eng := trainGolden(t)
	svc := engine.NewServiceWithOptions(eng, ecfg, video.Default(), engine.ServiceOptions{Shards: 1})
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	header := fmt.Sprintf("trace sessions=%d train=%d test=%d clusters=%d\n",
		d.Len(), train.Len(), test.Len(), eng.Clusters())
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	// Each drive re-registers the golden-N sessions (a duplicate start resets
	// the per-session filter), so the three runs are independent replays
	// against one trained model.
	jsonGot := driveReplay(t, ts, header, test)
	if jsonGot != string(want) {
		t.Errorf("JSON v1 replay diverged from golden file\ngot:\n%s\nwant:\n%s", jsonGot, string(want))
	}
	bc := httpapi.NewClient(ts.URL)
	bc.SetWireBinary(true)
	binGot := driveReplayWith(t, bc, header, test)
	if binGot != string(want) {
		t.Errorf("binary v2 replay diverged from golden file\ngot:\n%s\nwant:\n%s", binGot, string(want))
	}
	batGot := driveReplayBatched(t, httpapi.NewClient(ts.URL), header, test, nil)
	if batGot != string(want) {
		t.Errorf("batched v2 replay diverged from golden file\ngot:\n%s\nwant:\n%s", batGot, string(want))
	}
}

// TestGoldenReplay replays the full pipeline twice: the two live runs must
// be bit-identical (the whole stack is deterministic under fixed seeds) and
// must match the checked-in golden file. Regenerate with:
//
//	go test -run TestGoldenReplay -update .
func TestGoldenReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay trains a model; slow for -short")
	}
	got, _ := goldenReplay(t, 1)
	again, _ := goldenReplay(t, 1)
	if got != again {
		t.Fatalf("pipeline is nondeterministic: two replays differ\nfirst:\n%s\nsecond:\n%s", got, again)
	}
	path := filepath.Join("testdata", "golden_replay.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("replay diverged from %s (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			path, got, string(want))
	}
}

// TestGoldenReplayArtifactBoot pins the train/serve separation contract: a
// server booted from a published registry artifact — no trace, no trainer in
// the process image — must replay the golden protocol bit-identically to the
// train-at-startup server that produced testdata/golden_replay.txt. Any gap
// between the live clusterer and the artifact's routing/initial index shows
// up here as a one-character diff.
func TestGoldenReplayArtifactBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("artifact-boot replay trains a model; slow for -short")
	}
	d, train, test, ecfg, eng := trainGolden(t)
	// Trainer side: publish the artifact and walk away.
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(eng.Store(), core.TrainingMeta{
		TrainedAtUnix: 1700000000,
		TraceSessions: train.Len(),
		Clusters:      eng.Clusters(),
		Holdout:       core.EvaluateHoldout(eng, test),
	}); err != nil {
		t.Fatal(err)
	}
	// Server side: boot from the registry alone.
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
	defer ts.Close()
	header := fmt.Sprintf("trace sessions=%d train=%d test=%d clusters=%d\n",
		d.Len(), train.Len(), test.Len(), art.Manifest.Clusters)
	got := driveReplay(t, ts, header, test)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_replay.txt"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("artifact-booted replay diverged from the train-at-startup golden file\ngot:\n%s\nwant:\n%s",
			got, string(want))
	}
}

// TestShardInvariance pins the tentpole's correctness contract: the shard
// count is a concurrency knob, never a behavior knob. The same replay at
// shards=1, 4, and 16 must produce bit-identical predictions (the exact
// string the golden file pins) and the same set of QoE logs. Log ordering
// is normalized by session id before comparing — per-shard rings only
// guarantee global order via sequence merge, and the contract here is
// content, not interleaving.
func TestShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("shard invariance trains a model per shard count; slow for -short")
	}
	base, baseLogs := goldenReplay(t, 1)
	normalize := func(logs []engine.SessionLog) []engine.SessionLog {
		out := append([]engine.SessionLog(nil), logs...)
		sort.Slice(out, func(i, j int) bool { return out[i].SessionID < out[j].SessionID })
		return out
	}
	want := normalize(baseLogs)
	for _, shards := range []int{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, logs := goldenReplay(t, shards)
			if got != base {
				t.Errorf("replay at %d shards diverged from single-shard replay\ngot:\n%s\nwant:\n%s", shards, got, base)
			}
			if norm := normalize(logs); !reflect.DeepEqual(norm, want) {
				t.Errorf("logs at %d shards = %+v, want %+v", shards, norm, want)
			}
		})
	}
}

// TestGoldenRebuffer pins the §7.5 start-of-session rebuffer forecast to the
// last bit: one line per cluster model of the golden-replay training set
// (global fallback last), rendered %.17g from a direct EstimateRebuffer call
// with StartSession's arguments. The forecast is a function of (video spec,
// cluster model) alone, so every session StartSession opens over HTTP — JSON
// round-trips doubles exactly — must be answered with its cluster's line.
// Under the default ladder the synthetic population plays stall-free (every
// median is 0), so each line also carries the forecast under a 3x ladder the
// population cannot sustain: that column moves if a single MPC decision in
// any of the 30 rollouts does.
// Regenerate with:
//
//	go test -run TestGoldenRebuffer -update .
func TestGoldenRebuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuffer golden trains a model; slow for -short")
	}
	_, _, test, ecfg, eng := trainGolden(t)
	store := eng.Store()
	ids := make([]string, 0, len(store.Models))
	for id := range store.Models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	models := make([]*hmm.Model, 0, len(ids)+1)
	for _, id := range ids {
		models = append(models, store.Models[id].Model)
	}
	ids, models = append(ids, core.GlobalClusterID), append(models, store.Global.Model)
	x3 := video.Default()
	for i := range x3.BitratesKbps {
		x3.BitratesKbps[i] *= 3
	}
	want := make(map[string]float64, len(ids))
	var b strings.Builder
	for i, id := range ids {
		want[id] = engine.EstimateRebuffer(video.Default(), models[i], 0, 30, 1)
		fmt.Fprintf(&b, "cluster=%s rebuffer_estimate_sec=%.17g ladder_x3=%.17g\n",
			id, want[id], engine.EstimateRebuffer(x3, models[i], 0, 30, 1))
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_rebuffer.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(golden) {
		t.Errorf("rebuffer forecasts diverged from %s (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			path, got, string(golden))
	}

	svc := engine.NewService(eng, ecfg, video.Default())
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := httpapi.NewClient(ts.URL)
	seen := make(map[string]bool)
	for i, s := range test.Sessions {
		start, err := client.StartSession(fmt.Sprintf("rebuf-%d", i), s.Features, s.StartUnix)
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[start.ClusterID]; !ok || start.RebufferEstimateSec != w {
			t.Errorf("session %d cluster %s: rebuffer_estimate_sec %.17g over HTTP, golden %.17g",
				i, start.ClusterID, start.RebufferEstimateSec, w)
		}
		seen[start.ClusterID] = true
	}
	if len(seen) < 2 {
		t.Errorf("test sessions reached only %d cluster models (%v); the HTTP check needs a cluster and the fallback", len(seen), seen)
	}
}
