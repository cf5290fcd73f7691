// Command benchmark is the repo's one benchmark: it spawns the real
// cs2p-train, cs2p-server and cs2p-router binaries pinned with itself to one
// CPU, drives them closed-loop through the real httpapi.Client, checks every
// answer against an in-process oracle, and prints every metric by name with
// its unit. README.md in this directory is the manual.
//
//	go run ./benchmark                      # all workloads, end-to-end and per-layer
//	go run ./benchmark -selfcheck           # the end-to-end suite twice, compared against its own bounds
//	go run ./benchmark -workload steady-json-direct -seed 3 -seconds 12 -trace 0
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/mathx"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
)

// pinnedEnv marks the re-executed, pinned copy of the process and carries
// the CPU it was pinned to.
const pinnedEnv = "CS2P_BENCH_CPU"

// env is where and how a run happens.
type env struct {
	root     string // module root
	binDir   string // built tier binaries
	workDir  string // generated inputs, registries, tier logs
	outDir   string // per-slice CSVs and traces
	seed     int64
	sliceLen time.Duration
	e2e      bool // report end-to-end metrics (set up setupRepeats times)
	layers   bool // report per-layer metrics (traced replay, leaf loops, host reference)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the load sessions drawn from the population, and so of the op streams")
		seconds      = flag.Float64("seconds", 12, "length of a workload's sliced phase, warm-up included")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
		selfcheck    = flag.Bool("selfcheck", false, "run the end-to-end suite twice and compare the two against the bounds")
	)
	flag.Parse()
	selected := workloads
	if *workloadName != "" {
		wl, ok := findWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{wl}
	}
	if *seconds < 1 || *traceMode < -1 || *traceMode > 1 {
		return fail(errors.New("-seconds must be at least 1 and -trace one of -1, 0, 1"))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	e := env{
		root:     root,
		binDir:   filepath.Join(root, ".bench_build", "bin"),
		workDir:  filepath.Join(root, ".bench_build", "work"),
		outDir:   filepath.Join(root, "benchmark", "out"),
		seed:     *seed,
		sliceLen: time.Duration(*seconds * float64(time.Second) / (warmupSlices + measuredSlices)),
		e2e:      *traceMode != 1,
		layers:   *traceMode != 0 && !*selfcheck,
	}

	// Build unpinned (two CPUs compile faster than one), then pin and
	// re-execute so that this process and every child it spawns start life
	// on the one CPU and size their Go runtimes to it.
	cpu := os.Getenv(pinnedEnv)
	if cpu == "" {
		if err := build(e); err != nil {
			return fail(err)
		}
		err := pinAndReexec()
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: not pinned to one CPU (%v); numbers will be noisier and are not per-core\n", err)
	}
	fmt.Printf("# cs2p benchmark: pinned=%t cpu=%s gomaxprocs=%d seed=%d\n", cpu != "", cpu, runtime.GOMAXPROCS(0), e.seed)
	fmt.Printf("# closed loop: %d keep-alive connections, one goroutine each, disjoint sessions; a player waits for its prediction before the next chunk\n", conns)
	fmt.Printf("# %d warm-up + %d measured slices of %v; sliced metrics report the fast-side quartile across slices\n",
		warmupSlices, measuredSlices, e.sliceLen.Round(time.Millisecond))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *selfcheck {
		return runSelfcheck(ctx, e, selected)
	}
	code := 0
	for _, wl := range selected {
		res, err := runWorkload(ctx, e, wl)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		res.print(os.Stdout, e)
		if res.failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed; first: %s\n", wl.name, res.failed, res.attempted, res.firstFail)
			code = 1
		}
		if *workloadName != "" {
			res.printJSON(os.Stdout, e)
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "cs2p-server")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the cs2p module (no go.mod with cmd/cs2p-server above the working directory)")
		}
		dir = parent
	}
}

// build compiles the tier binaries once per invocation; the go build cache
// makes repeats cheap. It is excluded from setup_s.
func build(e env) error {
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", e.binDir+string(filepath.Separator),
		"./cmd/cs2p-train", "./cmd/cs2p-server", "./cmd/cs2p-router")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the tier binaries: %w", err)
	}
	return nil
}

// result is one workload's outcome.
type result struct {
	wl                workload
	values            map[string]float64 // every reported metric by name
	notes             map[string]string  // diagnostics printed beside a metric
	attempted, failed int
	firstFail         string
	summary           []string // free-form lines printed under the metrics
}

// setUp is one timed set-up of a workload's tier: generate the population,
// train and publish with cs2p-train, spawn the tier until /v1/healthz is
// ready, and register the resident set (none for churn).
type setUp struct {
	tier     *tier
	modelDir string
	art      *core.Artifact
	orc      *oracle
	plan     *plan
	preds    []*core.SessionPredictor
	seconds  float64
	groupMs  []float64 // per-group median start round trip
}

func newSetUp(ctx context.Context, e env, wl workload, dir string) (*setUp, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &setUp{modelDir: filepath.Join(dir, "registry")}
	start := time.Now()
	pop := generatePopulation()
	if err := writeCSV(filepath.Join(dir, "trace.csv"), pop); err != nil {
		return nil, err
	}
	train := exec.CommandContext(ctx, filepath.Join(e.binDir, "cs2p-train"),
		"-trace", filepath.Join(dir, "trace.csv"), "-registry-dir", s.modelDir)
	if out, err := train.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("cs2p-train: %w\n%s", err, out)
	}
	var err error
	if s.tier, err = startTier(ctx, e.binDir, s.modelDir, dir, wl.routed); err != nil {
		return nil, err
	}
	untimed := time.Now()

	// The driver's own preparation is not the tier's set-up: load the
	// artifact for the oracle and draw the load sessions off the clock.
	reg, err := registry.Open(s.modelDir)
	if err == nil {
		s.art, err = reg.Latest()
	}
	if err == nil {
		s.orc, err = newOracle(s.art)
	}
	if err != nil {
		s.tier.stop()
		return nil, fmt.Errorf("loading the trained artifact: %w", err)
	}
	n := residentSessions
	if wl.kind == churn {
		n = 0 // the whole population is the pool
	}
	s.plan = &plan{sessions: drawSessions(pop, e.seed, n)}
	if len(s.plan.sessions) < conns*batchOps {
		s.tier.stop()
		return nil, fmt.Errorf("population yields only %d load sessions", len(s.plan.sessions))
	}
	resume := time.Now()

	if wl.kind != churn {
		if err := s.register(ctx); err != nil {
			s.tier.stop()
			return nil, err
		}
	}
	s.seconds = (time.Since(start) - resume.Sub(untimed)).Seconds()
	return s, nil
}

// register starts the resident set over one connection, timing the starts
// in startGroups consecutive groups and checking each against the oracle.
func (s *setUp) register(ctx context.Context) error {
	st := &stream{plan: s.plan, orc: s.orc, client: newClient(s.tier.url, false, nil)}
	per := len(s.plan.sessions) / startGroups
	var group []int64
	var failure error
	st.register(func(_ reqClass, _ int, call func() (int, error)) bool {
		sent := time.Now()
		okOps, err := call()
		group = append(group, int64(time.Since(sent)))
		switch {
		case err != nil:
			failure = fmt.Errorf("registering the resident set: %w", err)
		case okOps == 0:
			failure = errors.New("registering the resident set: a start answer disagrees with the oracle")
		case ctx.Err() != nil:
			failure = ctx.Err()
		}
		if len(group) == per {
			s.groupMs = append(s.groupMs, medianNs(group)/1e6)
			group = group[:0]
		}
		return failure == nil
	})
	s.preds = st.preds
	return failure
}

func writeCSV(path string, d *trace.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload sets a workload up, drives its measured slices against the
// out-of-process tier, and, when per-layer metrics are wanted, follows with
// the traced replay, the leaf loops and the host reference.
func runWorkload(ctx context.Context, e env, wl workload) (*result, error) {
	dir := filepath.Join(e.workDir, wl.name)
	repeats := 1
	if e.e2e {
		repeats = setupRepeats
	}
	var (
		s        *setUp
		setupS   []float64
		groupMs  []float64
		setupErr error
	)
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.tier.stop()
		}
		if s, setupErr = newSetUp(ctx, e, wl, dir); setupErr != nil {
			return nil, setupErr
		}
		setupS = append(setupS, s.seconds)
		groupMs = append(groupMs, s.groupMs...)
	}
	defer s.tier.stop()

	var sources []cpuSource
	for _, p := range s.tier.procs {
		sources = append(sources, cpuSource{name: p.name, pid: p.cmd.Process.Pid})
	}
	before, err := scrapeServers(ctx, s.tier)
	if err != nil {
		return nil, err
	}
	dr := &driveRun{wl: wl, plan: s.plan, orc: s.orc, preds: s.preds, url: s.tier.url, sliceLen: e.sliceLen, sources: sources}
	m, err := dr.drive(ctx)
	if err != nil {
		if dead := s.tier.alive(); dead != nil {
			err = dead
		}
		return nil, err
	}
	if dead := s.tier.alive(); dead != nil {
		return nil, dead
	}
	after, err := scrapeServers(ctx, s.tier)
	if err != nil {
		return nil, err
	}
	rss := 0.0
	for _, src := range sources {
		mb, err := readHWMMB(src.pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	s.tier.stop() // the replay and the leaf loops want the core to themselves

	res := &result{wl: wl, values: make(map[string]float64), notes: make(map[string]string),
		attempted: m.attempted, failed: m.failed, firstFail: m.firstFail}
	sliced := func(name string, vals []float64, higherBetter bool) {
		v := fastQuartile(vals, higherBetter)
		res.values[name] = v
		res.notes[name] = fmt.Sprintf("fast-side quartile of %d; median %.6g, %.0f%% of them >10%% worse",
			len(vals), mathx.Quantile(vals, 0.5), 100*disturbedShare(vals, v, higherBetter))
	}
	tierCPU := make([]float64, measuredSlices)
	for _, name := range []string{"server", "router"} {
		for i, v := range m.cpuUsPerOp[name] {
			tierCPU[i] += v
		}
	}
	res.values["setup_s"] = mathx.Quantile(setupS, 0.5)
	res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups: %.3f", len(setupS), setupS)
	sliced("ops_per_s", m.opsPerS, true)
	sliced("rtt_p50_ms", m.p50Ms, false)
	sliced("rtt_p99_ms", m.p99Ms, false)
	res.notes["rtt_p99_ms"] += fmt.Sprintf(" (blocks of >=%d samples, smallest %d)", minP99Samples, m.p99MinSamples)
	if wl.kind == churn {
		sliced("start_p50_ms", m.startP50Ms, false)
	} else {
		sliced("start_p50_ms", groupMs, false)
		res.notes["start_p50_ms"] += " (registration groups)"
	}
	sliced("cpu_us_per_op", tierCPU, false)
	res.values["rss_mb"] = rss
	res.notes["rss_mb"] = "summed VmHWM of the tier processes"

	for _, name := range []string{"driver", "server", "router"} {
		if vals := m.cpuUsPerOp[name]; len(vals) > 0 {
			sliced(name+".cpu_us_per_op", vals, false)
		} else {
			res.values[name+".cpu_us_per_op"] = 0
		}
	}
	res.values["server.ctxsw_per_op"] = m.switchesPerOp["server"]
	driveSeconds := (time.Duration(warmupSlices+measuredSlices) * e.sliceLen).Seconds()
	res.values["server.gc_per_s"] = (after["cs2p_runtime_gc_cycles"] - before["cs2p_runtime_gc_cycles"]) / driveSeconds
	res.values["server.heap_mb"] = after["cs2p_runtime_heap_alloc_bytes"] / (1 << 20)
	hit, global := after[`cs2p_prediction_cluster_total{source="cluster"}`], after[`cs2p_prediction_cluster_total{source="global"}`]
	res.values["engine.cluster_hit_share"] = hit / (hit + global)
	if !(res.values["engine.cluster_hit_share"] >= 0.5) {
		return nil, fmt.Errorf("only %.0f of %.0f starts hit a trained cluster: the workload is running on the global fallback", hit, hit+global)
	}
	res.values["run.disturbed_slice_share"] = disturbedShare(m.opsPerS, res.values["ops_per_s"], true)
	total := res.values["driver.cpu_us_per_op"] + res.values["cpu_us_per_op"]
	res.summary = append(res.summary,
		fmt.Sprintf("ops attempted %d, succeeded %d, failed %d", m.attempted, m.attempted-m.failed, m.failed),
		fmt.Sprintf("one saturated core: 1e6 / (driver %.2f + tier %.2f us/op) = %.0f ops/s against ops_per_s %.0f",
			res.values["driver.cpu_us_per_op"], res.values["cpu_us_per_op"], 1e6/total, res.values["ops_per_s"]))
	if err := writeSlices(filepath.Join(e.outDir, wl.name+".slices.csv"), m, tierCPU); err != nil {
		return nil, err
	}

	if e.layers {
		spans, err := replay(wl, s.plan, s.orc, s.art, replayUnits(wl), e.outDir)
		if err != nil {
			return nil, err
		}
		leaves, err := leafLoops(s.art, s.modelDir, s.plan.sessions[:batchOps], 1)
		if err != nil {
			return nil, err
		}
		host, err := hostReference()
		if err != nil {
			return nil, err
		}
		for _, part := range []map[string]float64{spans, leaves, host} {
			for k, v := range part {
				res.values[k] = v
			}
		}
		ratio := res.values["trace.self_sum_us"] / res.values["trace.client_median_us"]
		line := fmt.Sprintf("span self times sum to %.2f us against a traced client-side median of %.2f us (ratio %.3f)",
			res.values["trace.self_sum_us"], res.values["trace.client_median_us"], ratio)
		if math.Abs(ratio-1) > 0.05 {
			line += " WARNING: more than 5% apart"
		}
		res.summary = append(res.summary, line)
	}
	return res, os.RemoveAll(dir)
}

// scrapeServers sums the /metrics of the tier's cs2p-server processes.
func scrapeServers(ctx context.Context, t *tier) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, p := range t.procs {
		if p.name != "server" {
			continue
		}
		m, err := scrape(ctx, p)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// writeSlices keeps the raw per-slice evidence of a run.
func writeSlices(path string, m *measured, tierCPU []float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	_ = w.Write([]string{"slice", "ops_per_s", "rtt_p50_ms", "rtt_p99_ms", "cpu_us_per_op", "n"}) // errors surface at Flush
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for i := range m.opsPerS {
		_ = w.Write([]string{strconv.Itoa(i), g(m.opsPerS[i]), g(m.p50Ms[i]), g(m.sliceP99Ms[i]), g(tierCPU[i]), strconv.Itoa(m.samples[i])})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reported lists the metric tables a run with these settings prints.
func (e env) reported() []metricDef {
	var defs []metricDef
	if e.e2e {
		defs = append(defs, endToEnd...)
	}
	if e.layers {
		defs = append(defs, perLayer...)
	}
	return defs
}

func (r *result) print(w io.Writer, e env) {
	fmt.Fprintf(w, "\nworkload %s — %s\n", r.wl.name, r.wl.why)
	for _, d := range e.reported() {
		v, ok := r.values[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured") // a bug in this program
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-7s %s\n", d.Name, v, d.Unit, r.notes[d.Name])
	}
	for _, line := range r.summary {
		fmt.Fprintln(w, "  "+line)
	}
}

// printJSON writes the driver's result line: the last line of output.
func (r *result) printJSON(w io.Writer, e env) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, d := range e.reported() {
		out.Metrics[d.Name] = value{Value: r.values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only floats, strings and ints: cannot fail unless a value is NaN, which is a bug
	}
	fmt.Fprintln(w, string(b))
}

// runSelfcheck runs the end-to-end suite twice on the same build and holds
// the two runs to the benchmark's own bounds.
func runSelfcheck(ctx context.Context, e env, selected []workload) int {
	runs := [2]map[string]*result{{}, {}}
	for i := range runs {
		for _, wl := range selected {
			res, err := runWorkload(ctx, e, wl)
			if err != nil {
				return fail(fmt.Errorf("selfcheck run %d, %s: %w", i+1, wl.name, err))
			}
			if res.failed > 0 {
				return fail(fmt.Errorf("selfcheck run %d, %s: %d ops failed; first: %s", i+1, wl.name, res.failed, res.firstFail))
			}
			runs[i][wl.name] = res
		}
	}
	fmt.Printf("\n%-22s %-14s %12s %12s %8s %6s\n", "workload", "metric", "run 1", "run 2", "gap", "bound")
	code := 0
	for _, wl := range selected {
		for _, d := range endToEnd {
			a, b := runs[0][wl.name].values[d.Name], runs[1][wl.name].values[d.Name]
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if gap > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-22s %-14s %12.5g %12.5g %7.1f%% %5.0f%%%s\n", wl.name, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	return code
}
