package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/registry"
	"cs2p/internal/tracegen"
)

// TestFastQuartileIgnoresSlowEpisode is the noise model in miniature: a
// plateau with a -25% interference episode over a third of the slices. The
// fast-side quartile stays on the plateau; the median and the mean do not
// need to, and the episode shows up as the disturbed share.
func TestFastQuartileIgnoresSlowEpisode(t *testing.T) {
	var ops, rtt []float64
	for i := 0; i < 30; i++ {
		wobble := 1 + 0.01*math.Sin(float64(i)) // +-1% plateau
		if i >= 8 && i < 18 {
			wobble *= 0.75
		}
		ops = append(ops, 7300*wobble)
		rtt = append(rtt, 0.23/wobble)
	}
	if q := fastQuartile(ops, true); math.Abs(q/7300-1) > 0.01 {
		t.Errorf("ops q3 = %.0f, want within 1%% of the 7300 plateau", q)
	}
	if q := fastQuartile(rtt, false); math.Abs(q/0.23-1) > 0.01 {
		t.Errorf("rtt q1 = %.4f, want within 1%% of the 0.23 plateau", q)
	}
	if mean := sum(ops) / 30; mean > 7300*0.95 {
		t.Errorf("mean %.0f did not feel the episode; the test no longer shows why the quartile is used", mean)
	}
	if got := disturbedShare(ops, fastQuartile(ops, true), true); got != 10.0/30 {
		t.Errorf("disturbed share = %v, want 10/30", got)
	}
	if got := disturbedShare(rtt, fastQuartile(rtt, false), false); got != 10.0/30 {
		t.Errorf("disturbed share (lower is better) = %v, want 10/30", got)
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func TestPercentileMs(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i+1) * 1e6
	}
	if got := percentileMs(sorted, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 ms = %v, want 99", got)
	}
	if got := percentileMs(sorted, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 ms = %v, want 50", got)
	}
}

func TestP99BlocksHoldEnoughSamples(t *testing.T) {
	slices := make([][]int64, 10)
	for i := range slices {
		slices[i] = make([]int64, 300)
	}
	blocks := p99Blocks(slices, 1000)
	if len(blocks) != 2 {
		t.Fatalf("10 slices of 300 gave %d blocks, want 2 (4 slices each, remainder joined)", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		if len(b) < 1000 {
			t.Errorf("block of %d samples, want >= 1000", len(b))
		}
		total += len(b)
	}
	if total != 3000 {
		t.Errorf("blocks hold %d samples, want all 3000", total)
	}
	if got := p99Blocks(slices[:1], 200); len(got) != 1 || len(got[0]) != 300 {
		t.Errorf("a busy slice must be its own block, got %d blocks", len(got))
	}
}

// TestOpStreamIsDeterministicAndDisjoint pins the two properties the oracle
// relies on: a seed fixes the op stream, and no session is ever touched by
// two connections.
func TestOpStreamIsDeterministicAndDisjoint(t *testing.T) {
	pop := generatePopulation()
	if len(pop.Sessions) != trainSessions {
		t.Fatalf("population has %d sessions, want %d", len(pop.Sessions), trainSessions)
	}
	a := &plan{sessions: drawSessions(pop, 7, residentSessions)}
	b := &plan{sessions: drawSessions(generatePopulation(), 7, residentSessions)}
	if !reflect.DeepEqual(a.sessions, b.sessions) {
		t.Fatal("the same seed drew different load sessions")
	}
	if other := drawSessions(pop, 8, residentSessions); reflect.DeepEqual(a.sessions, other) {
		t.Fatal("a different seed drew the same load sessions")
	}
	if len(a.sessions) != residentSessions {
		t.Fatalf("drew %d sessions, want %d", len(a.sessions), residentSessions)
	}
	for _, s := range a.sessions {
		if len(s.tput) < churnObserves {
			t.Fatalf("session %s has %d epochs, too short for a churn session", s.id, len(s.tput))
		}
	}

	owner := make(map[int]int)
	for c := 0; c < conns; c++ {
		seen := make(map[int]int)
		for k := 0; k < 3*a.owned(c); k++ {
			sa, wa := a.steadyOp(c, k)
			sb, wb := b.steadyOp(c, k)
			if sa != sb || wa != wb {
				t.Fatalf("op (%d,%d) differs between two plans of one seed", c, k)
			}
			if prev, ok := owner[sa]; ok && prev != c {
				t.Fatalf("session %d is touched by connections %d and %d", sa, prev, c)
			}
			owner[sa] = c
			// Each pass over the connection's sessions reports the next
			// epoch of the session's own series.
			if want := a.sessions[sa].tput[seen[sa]%len(a.sessions[sa].tput)]; wa != want {
				t.Fatalf("op (%d,%d) observed %v, want epoch %d = %v", c, k, wa, seen[sa], want)
			}
			seen[sa]++
		}
		if len(seen) != a.owned(c) {
			t.Errorf("connection %d visited %d sessions, owns %d", c, len(seen), a.owned(c))
		}
		// A batch frame never holds two ops of one session.
		frame := make(map[int]bool)
		for i := 0; i < batchOps; i++ {
			s, _ := a.steadyOp(c, i)
			if frame[s] {
				t.Fatalf("connection %d's first frame touches session %d twice", c, s)
			}
			frame[s] = true
		}
	}
	if len(owner) != residentSessions {
		t.Errorf("the connections cover %d sessions, want all %d", len(owner), residentSessions)
	}

	ids := make(map[string]bool)
	for c := 0; c < conns; c++ {
		for j := 0; j < 50; j++ {
			pool, id := a.churnSession(c, j)
			if pool%conns != c {
				t.Fatalf("churn session (%d,%d) draws pool entry %d of another connection", c, j, pool)
			}
			if ids[id] {
				t.Fatalf("churn id %s issued twice", id)
			}
			ids[id] = true
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		// op 0: client 100 > roundtrip 80 > handler 50 > engine 10
		{Op: 0, ID: 0, Parent: -1, Name: "client.call", Start: 0, End: 100},
		{Op: 0, ID: 1, Parent: 0, Name: "roundtrip.front", Start: 10, End: 90},
		{Op: 0, ID: 2, Parent: 1, Name: "handler.front", Start: 20, End: 70},
		{Op: 0, ID: 3, Parent: 2, Name: "engine.observe", Start: 30, End: 40},
		// op 1: a routed op whose router makes two upstream calls
		{Op: 1, ID: 4, Parent: -1, Name: "client.call", Start: 200, End: 400},
		{Op: 1, ID: 5, Parent: 4, Name: "roundtrip.front", Start: 210, End: 390},
		{Op: 1, ID: 6, Parent: 5, Name: "handler.front", Start: 220, End: 380},
		{Op: 1, ID: 7, Parent: 6, Name: "router.observe", Start: 230, End: 370},
		{Op: 1, ID: 8, Parent: 7, Name: "upstream.roundtrip", Start: 240, End: 290},
		{Op: 1, ID: 9, Parent: 8, Name: "handler.replica", Start: 250, End: 280},
		{Op: 1, ID: 10, Parent: 9, Name: "engine.observe", Start: 260, End: 270},
		{Op: 1, ID: 11, Parent: 7, Name: "upstream.roundtrip", Start: 300, End: 360},
	}
	got := selfTimes(spans)
	want0 := map[string]int64{"client": 20, "roundtrip": 30, "handler": 40, "engine": 10}
	if !reflect.DeepEqual(got[0].self, want0) || got[0].total != 100 || got[0].upstream != 0 {
		t.Errorf("op 0 = %+v, want self %v total 100", got[0], want0)
	}
	want1 := map[string]int64{"client": 20, "roundtrip": 20, "handler": 20 + 20, "router": 30, "upstream": 20 + 60, "engine": 10}
	if !reflect.DeepEqual(got[1].self, want1) || got[1].total != 200 || got[1].upstream != 2 {
		t.Errorf("op 1 = %+v, want self %v total 200 upstream 2", got[1], want1)
	}
	for op, o := range got {
		var s int64
		for _, ns := range o.self {
			s += ns
		}
		if s != o.total {
			t.Errorf("op %d: self times sum to %d, root span is %d", op, s, o.total)
		}
	}

	rec := &recorder{spans: spans, class: []reqClass{primaryReq, primaryReq}}
	m := spanMetrics(rec, 1)
	if got, want := selfSumUs(m), (100.0+200.0)/2/1e3; math.Abs(got-want) > 1e-12 {
		t.Errorf("layer self times sum to %v us, want the mean round trip %v us", got, want)
	}
	if m["router.upstream_calls_per_op"] != 1 {
		t.Errorf("upstream calls per op = %v, want 1 (0 and 2)", m["router.upstream_calls_per_op"])
	}
	if m["engine.observe_us"] != 0.01 {
		t.Errorf("engine.observe_us = %v, want 0.01", m["engine.observe_us"])
	}
}

// trainedArtifact trains a small model in-process: enough for real clusters,
// fast enough for a unit test.
var trainedArtifact = sync.OnceValues(func() (*core.Artifact, []loadSession) {
	gen := tracegen.SmallConfig()
	gen.Sessions = 300
	d, _ := tracegen.Generate(gen)
	cfg := core.DefaultConfig()
	cfg.Cluster.MinGroupSize = 10
	cfg.HMM.NStates = 3
	cfg.HMM.MaxIters = 8
	eng, err := core.Train(d, cfg)
	if err != nil {
		panic(err)
	}
	return &core.Artifact{Manifest: core.Manifest{Version: 1}, Store: eng.Export(d)}, drawSessions(d, 1, 8)
})

func TestOracleDetectsMismatch(t *testing.T) {
	art, sessions := trainedArtifact()
	orc, err := newOracle(art)
	if err != nil {
		t.Fatal(err)
	}
	// What a correct tier answers: an engine.Service on the same artifact.
	svc, _, err := newService(art)
	if err != nil {
		t.Fatal(err)
	}
	s := &sessions[0]
	resp := svc.StartSession(s.id, s.features, s.startUnix)
	p := orc.start(s.id, s)
	if !startOK(p, resp) {
		t.Fatalf("oracle rejects the engine's own start answer %+v", resp)
	}
	wrongCluster, wrongInitial := resp, resp
	wrongCluster.ClusterID += "-x"
	wrongInitial.InitialPredictionMbps = math.Nextafter(resp.InitialPredictionMbps, math.Inf(1))
	if startOK(p, wrongCluster) || startOK(p, wrongInitial) {
		t.Error("oracle accepted a start answer with a wrong cluster id or initial prediction")
	}
	for e := 0; e < churnObserves; e++ {
		pred, err := svc.ObserveAndPredict(s.id, s.tput[e], 1)
		if err != nil {
			t.Fatal(err)
		}
		if e == 3 {
			// One ulp off is a mismatch, and the oracle has consumed the
			// observation either way, so it stays in step.
			if observeOK(p, s.tput[e], math.Nextafter(pred, math.Inf(1))) {
				t.Error("oracle accepted a prediction one ulp off")
			}
			continue
		}
		if !observeOK(p, s.tput[e], pred) {
			t.Fatalf("oracle rejects the engine's own prediction at epoch %d", e)
		}
	}
	// A JSON round trip of a prediction must not look like a mismatch.
	pred, _ := svc.ObserveAndPredict(s.id, 2.5, 1)
	b, _ := json.Marshal(pred)
	var back float64
	if err := json.Unmarshal(b, &back); err != nil || !observeOK(p, 2.5, back) {
		t.Errorf("prediction %v did not survive JSON bit-exactly (%s)", pred, b)
	}
}

// TestReplayTracesEveryBoundary runs the traced replay end to end on a small
// model, once per tier shape, and checks the span tree it records.
func TestReplayTracesEveryBoundary(t *testing.T) {
	art, sessions := trainedArtifact()
	orc, err := newOracle(art)
	if err != nil {
		t.Fatal(err)
	}
	pl := &plan{sessions: sessions}
	for _, name := range []string{"steady-json-direct", "steady-binary-routed", "batch-binary-direct", "churn-json-routed"} {
		wl, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		dir := t.TempDir()
		m, err := replay(wl, pl, orc, art, 6, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, layer := range []string{"httpapi.client_self_us", "transport.self_us", "httpapi.server_self_us", "engine.self_us"} {
			if !(m[layer] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, layer, m[layer])
			}
		}
		if wl.routed != (m["router.self_us"] > 0) || wl.routed != (math.Abs(m["router.upstream_calls_per_op"]-1) < 1e-9) {
			t.Errorf("%s: router.self_us %v, upstream calls %v", name, m["router.self_us"], m["router.upstream_calls_per_op"])
		}
		if (wl.kind == churn) != (m["engine.end_us"] > 0) {
			t.Errorf("%s: engine.end_us = %v", name, m["engine.end_us"])
		}
		if !(m["engine.start_us"] > 0 && m["engine.observe_us"] > 0 && m["trace.overhead_ratio"] > 0) {
			t.Errorf("%s: engine.start_us %v, engine.observe_us %v, overhead %v", name, m["engine.start_us"], m["engine.observe_us"], m["trace.overhead_ratio"])
		}
		var spans []span
		raw, err := os.ReadFile(dir + "/" + name + ".trace.json")
		if err == nil {
			err = json.Unmarshal(raw, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Fatalf("%s: trace file: %v (%d spans)", name, err, len(spans))
		}
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %+v ends before it starts", name, s)
			}
			if s.Parent >= 0 {
				p := spans[s.Parent]
				if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
					t.Fatalf("%s: span %+v does not nest inside its parent %+v", name, s, p)
				}
			} else if !strings.HasPrefix(s.Name, "client.") {
				t.Fatalf("%s: root span %+v is not a client call", name, s)
			}
		}
	}
}

// TestPrintedNamesAgreeWithBenchmarkJSON holds the three copies of the
// metric names together: the tables in metrics.go, what a run prints, and
// BENCHMARK.json at the repository root.
func TestPrintedNamesAgreeWithBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || len(spec.Command) == 0 {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	// What a run prints, in each trace mode.
	res := &result{wl: workloads[0], values: make(map[string]float64), notes: map[string]string{}, attempted: 10}
	for name := range seen {
		res.values[name] = 1.5
	}
	for _, mode := range []struct {
		e    env
		want []metricDef
	}{{env{e2e: true}, endToEnd}, {env{layers: true}, perLayer}} {
		var text, line bytes.Buffer
		res.print(&text, mode.e)
		res.printJSON(&line, mode.e)
		var out struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted != 10 || out.Failed != 0 || len(out.Metrics) != len(mode.want) {
			t.Errorf("result line %s: want correct, 10 attempted, %d metrics", line.String(), len(mode.want))
		}
		for _, d := range mode.want {
			if got, ok := out.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("result line lacks %s in %s (got %+v)", d.Name, d.Unit, got)
			}
			if !strings.Contains(text.String(), " "+d.Name+" ") {
				t.Errorf("printed table lacks %s", d.Name)
			}
		}
	}
}

// TestEveryLayerMetricHasOneSource walks the leaf ladder once and checks
// that the process split, the replay, the leaf loops and the host reference
// together report every per-layer metric exactly once.
func TestEveryLayerMetricHasOneSource(t *testing.T) {
	art, sessions := trainedArtifact()
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err == nil {
		_, err = reg.Publish(art.Store, core.TrainingMeta{TrainedAtUnix: 1})
	}
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := leafLoops(art, dir, sessions, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range leaves {
		if !strings.HasSuffix(name, "_allocs") && !(v > 0) {
			t.Errorf("leaf loop %s = %v, want > 0", name, v)
		}
	}
	source := make(map[string]string)
	claim := func(from string, names ...string) {
		for _, n := range names {
			if prev, ok := source[n]; ok {
				t.Errorf("%s is reported by both %s and %s", n, prev, from)
			}
			source[n] = from
		}
	}
	claim("measured slices", "rtt_p99_ms", "driver.cpu_us_per_op", "server.cpu_us_per_op", "router.cpu_us_per_op", "server.ctxsw_per_op",
		"server.gc_per_s", "server.heap_mb", "engine.cluster_hit_share", "run.disturbed_slice_share")
	claim("host reference", "host.spin_mops", "host.echo_rtt_us")
	claim("replay", "trace.overhead_ratio", "trace.self_sum_us")
	for n := range spanMetrics(newRecorder(), 1) {
		claim("replay", n)
	}
	for n := range leaves {
		claim("leaf loops", n)
	}
	for _, d := range perLayer {
		if source[d.Name] == "" {
			t.Errorf("nothing reports %s", d.Name)
		}
		delete(source, d.Name)
	}
	for n, from := range source {
		t.Errorf("%s reports %s, which metrics.go does not list", from, n)
	}
}
