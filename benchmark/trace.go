package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/router"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// Sizes of the traced replay (README.md: cut from the issue's 20 000 / 1000
// to fit the driver's time cap).
const (
	replayRequests      = 4000 // primary requests per pass, steady and batch
	replayChurnSessions = 100  // sessions per pass, churn
)

// replayUnits is how many units of its op stream a workload's replay plays
// per pass: primary requests, or whole sessions for churn.
func replayUnits(wl workload) int {
	if wl.kind == churn {
		return replayChurnSessions
	}
	return replayRequests
}

// span is one timed interval at a layer boundary. Name is "<layer>.<what>";
// Parent is the span that was open when this one began (-1 for a root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a replay in memory. The replay has exactly one
// request in flight, and every boundary it decorates nests strictly inside
// the one above it in time (client call > RoundTrip > handler > backend >
// upstream RoundTrip > replica handler > engine), so one stack shared by all
// goroutines gives each span its parent.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	op    int
	class []reqClass // per op
	stack []int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), op: -1} }

func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// beginOp starts the next client-side op; spans begun until the next beginOp
// carry its number.
func (r *recorder) beginOp(class reqClass) {
	r.mu.Lock()
	if r.on {
		r.op++
		r.class = append(r.class, class)
	}
	r.mu.Unlock()
}

// begin opens a span and returns its id, or -1 while recording is off.
func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	id := len(r.spans)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, id)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
	r.mu.Unlock()
}

// tracedRT wraps an http.RoundTripper in a span.
type tracedRT struct {
	rec  *recorder
	name string
	base http.RoundTripper
}

func (t tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.begin(t.name)
	resp, err := t.base.RoundTrip(req)
	t.rec.end(id)
	return resp, err
}

// tracedHandler wraps an http.Handler in a span.
func tracedHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rec.begin(name)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// backend is what both *engine.Service and *router.Router offer the HTTP
// server on the data path.
type backend interface {
	httpapi.SessionService
	httpapi.BatchService
	httpapi.HealthReporter
}

// tracedBackend wraps the data-path calls of a backend in spans named
// "<layer>.<call>"; everything else passes through the embedded interface.
type tracedBackend struct {
	backend
	rec   *recorder
	layer string
}

func (b tracedBackend) Start(id string, f trace.Features, startUnix int64) (engine.StartResponse, error) {
	sp := b.rec.begin(b.layer + ".start")
	defer b.rec.end(sp)
	if st, ok := b.backend.(httpapi.StartService); ok {
		return st.Start(id, f, startUnix)
	}
	return b.backend.StartSession(id, f, startUnix), nil
}

func (b tracedBackend) ObserveAndPredict(id string, observed float64, horizon int) (float64, error) {
	sp := b.rec.begin(b.layer + ".observe")
	defer b.rec.end(sp)
	return b.backend.ObserveAndPredict(id, observed, horizon)
}

func (b tracedBackend) ServeBatch(ops []engine.BatchOp, res []engine.BatchResult) uint64 {
	sp := b.rec.begin(b.layer + ".batch")
	defer b.rec.end(sp)
	return b.backend.ServeBatch(ops, res)
}

func (b tracedBackend) EndSession(lg engine.SessionLog) {
	sp := b.rec.begin(b.layer + ".end")
	defer b.rec.end(sp)
	b.backend.EndSession(lg)
}

// replayTier is the in-process copy of a workload's tier, built from the
// same artifact through the same constructors the binaries use, with a
// decorator at every boundary.
type replayTier struct {
	url     string
	servers []*http.Server
}

func (t *replayTier) close() {
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Close() // shutting down: nothing to do about a close error
	}
}

func (t *replayTier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed when close runs
	return "http://" + ln.Addr().String(), nil
}

// newService boots an engine.Service from the artifact the way cs2p-server
// does in -model-dir mode: metrics attached, default options.
func newService(art *core.Artifact) (*engine.Service, *obs.Registry, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	svc, err := engine.NewServiceFromArtifact(art, cfg, video.Default(), engine.ServiceOptions{})
	if err != nil {
		return nil, nil, err
	}
	svc.SetMetrics(reg)
	return svc, reg, nil
}

// newServer puts the httpapi stack cs2p-server ships (metrics on, default
// limits) in front of a backend.
func newServer(b httpapi.SessionService, reg *obs.Registry) *httpapi.Server {
	srv := httpapi.NewServer(b, nil)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(reg)
	return srv
}

func newReplayTier(art *core.Artifact, routed bool, rec *recorder) (*replayTier, error) {
	t := &replayTier{}
	replicas, handlerName := 1, "handler.front"
	if routed {
		replicas, handlerName = 2, "handler.replica"
	}
	var urls []string
	for i := 0; i < replicas; i++ {
		svc, reg, err := newService(art)
		if err != nil {
			t.close()
			return nil, err
		}
		h := newServer(tracedBackend{backend: svc, rec: rec, layer: "engine"}, reg).Handler()
		url, err := t.serve(tracedHandler(rec, handlerName, h))
		if err != nil {
			t.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	t.url = urls[0]
	if !routed {
		return t, nil
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	rt, err := router.New(router.Config{
		Replicas: urls,
		Metrics:  reg,
		NewClient: func(base string) *httpapi.Client {
			return newClient(base, false, tracedRT{rec: rec, name: "upstream.roundtrip", base: &http.Transport{MaxIdleConnsPerHost: 2}})
		},
		NewProbeClient: httpapi.NewClient,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	rt.ProbeAll(ctx)
	cancel()
	h := newServer(tracedBackend{backend: rt, rec: rec, layer: "router"}, reg).Handler()
	if t.url, err = t.serve(tracedHandler(rec, "handler.front", h)); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// replayer plays a stream from one goroutine, each client call a root span.
// Connection ownership survives: unit i belongs to connection i%conns.
type replayer struct {
	stream *stream
	rec    *recorder
	next   int     // next unit
	lat    []int64 // primary round trips of the current pass
	failed int
}

func (r *replayer) do(class reqClass, ops int, call func() (int, error)) bool {
	r.rec.beginOp(class)
	sp := r.rec.begin("client.call")
	sent := time.Now()
	okOps, _ := call() // a failed op is counted; its cause does not matter here
	d := int64(time.Since(sent))
	r.rec.end(sp)
	r.failed += ops - okOps
	if class == primaryReq {
		r.lat = append(r.lat, d)
	}
	return true
}

// pass plays the next units of the stream and returns their primary round
// trips.
func (r *replayer) pass(units int) []int64 {
	r.lat = nil
	for end := r.next + units; r.next < end; r.next++ {
		r.stream.unit(r.next%conns, r.next/conns, r.do)
	}
	return r.lat
}

// layerMetric maps a span's layer (the part of its name before the dot) to
// the per-layer metric its self time feeds.
var layerMetric = map[string]string{
	"client":    "httpapi.client_self_us",
	"roundtrip": "transport.self_us",
	"handler":   "httpapi.server_self_us",
	"engine":    "engine.self_us",
	"router":    "router.self_us",
	"upstream":  "router.upstream_self_us",
}

// opSelf is one op's root duration and the self time of each layer under it.
type opSelf struct {
	total    int64
	self     map[string]int64 // by layer
	upstream int              // upstream RoundTrips
}

// selfTimes folds spans into per-op self times: a span's self time is its
// duration minus the durations of its children.
func selfTimes(spans []span) map[int]*opSelf {
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	ops := make(map[int]*opSelf)
	for _, s := range spans {
		o := ops[s.Op]
		if o == nil {
			o = &opSelf{self: make(map[string]int64)}
			ops[s.Op] = o
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		o.self[layer] += s.End - s.Start - childNs[s.ID]
		if s.Parent < 0 {
			o.total += s.End - s.Start
		}
		if layer == "upstream" {
			o.upstream++
		}
	}
	return ops
}

func medianNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2])
}

// spanMetrics turns a traced pass into the span self-time metrics. Layer
// self times are means over the middle fifth of the primary ops ranked by
// client-side round trip: means add up exactly to the mean round trip of
// those ops, and the middle fifth keeps that mean next to the median, so the
// layers can be summed and checked against the client-side median.
func spanMetrics(rec *recorder, perRequestOps int) map[string]float64 {
	byOp := selfTimes(rec.spans)
	var primary []*opSelf
	for op, o := range byOp {
		if op >= 0 && rec.class[op] == primaryReq {
			primary = append(primary, o)
		}
	}
	sort.Slice(primary, func(i, j int) bool { return primary[i].total < primary[j].total })
	out := map[string]float64{"router.upstream_calls_per_op": 0, "trace.client_median_us": 0,
		"engine.start_us": 0, "engine.observe_us": 0, "engine.end_us": 0}
	for _, name := range layerMetric {
		out[name] = 0
	}
	if len(primary) == 0 {
		return out
	}
	middle := primary[len(primary)*2/5 : len(primary)-len(primary)*2/5]
	upstream := 0
	for _, o := range middle {
		for layer, ns := range o.self {
			out[layerMetric[layer]] += float64(ns)
		}
		upstream += o.upstream
	}
	for _, name := range layerMetric {
		out[name] /= 1e3 * float64(len(middle))
	}
	out["router.upstream_calls_per_op"] = float64(upstream) / float64(len(middle))
	out["trace.client_median_us"] = float64(primary[len(primary)/2].total) / 1e3

	// Engine time per call kind: the median engine span, a batch divided by
	// its op count.
	byName := make(map[string][]int64)
	for _, s := range rec.spans {
		byName[s.Name] = append(byName[s.Name], s.End-s.Start)
	}
	out["engine.start_us"] = medianNs(byName["engine.start"]) / 1e3
	out["engine.end_us"] = medianNs(byName["engine.end"]) / 1e3
	out["engine.observe_us"] = medianNs(byName["engine.observe"]) / 1e3
	if b := byName["engine.batch"]; len(b) > 0 {
		out["engine.observe_us"] = medianNs(b) / 1e3 / float64(perRequestOps)
	}
	return out
}

// selfSumUs adds the layer self times of a spanMetrics result.
func selfSumUs(m map[string]float64) float64 {
	sum := 0.0
	for _, name := range layerMetric {
		sum += m[name]
	}
	return sum
}

// replay runs the traced replay of a workload: the resident set is
// registered through the decorated stack, then the op stream is played once
// with recording off (warming the tier and giving the untraced client-side
// median) and once more, continuing the stream, with recording on. Every
// answer in both passes is checked against the oracle.
func replay(wl workload, pl *plan, orc *oracle, art *core.Artifact, units int, outDir string) (map[string]float64, error) {
	rec := newRecorder()
	tier, err := newReplayTier(art, wl.routed, rec)
	if err != nil {
		return nil, err
	}
	defer tier.close()
	r := &replayer{rec: rec, stream: &stream{wl: wl, plan: pl, orc: orc,
		client: newClient(tier.url, wl.binary, tracedRT{rec: rec, name: "roundtrip.front", base: &http.Transport{MaxIdleConnsPerHost: 2}})}}
	rec.enable(true)
	if wl.kind != churn {
		r.stream.register(r.do)
	}
	rec.enable(false)
	untraced := r.pass(units)
	rec.enable(true)
	traced := r.pass(units)
	rec.enable(false)
	if r.failed > 0 {
		return nil, fmt.Errorf("traced replay: %d ops failed or disagreed with the oracle", r.failed)
	}
	perRequestOps := 1
	if wl.kind == batch {
		perRequestOps = batchOps
	}
	out := spanMetrics(rec, perRequestOps)
	out["trace.overhead_ratio"] = medianNs(traced) / medianNs(untraced)
	out["trace.self_sum_us"] = selfSumUs(out)
	return out, writeTrace(filepath.Join(outDir, wl.name+".trace.json"), rec.spans)
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
