package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/registry"
	"cs2p/internal/sessionstore"
	"cs2p/internal/trace"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// Iteration counts of the leaf loops. Calls that cost microseconds run
// leafIters times; the ~9 ms start-path calls run leafStartIters times
// (README.md: cut from the issue's 2000 to fit the driver's time cap).
const (
	leafIters      = 100_000
	leafSlowIters  = 20_000 // the ~10 us JSON handler and client calls
	leafStartIters = 40
	leafLoadIters  = 10
	leafRounds     = 3 // each loop runs this many times; the median round is reported
)

var sink float64 // keeps measured results alive

// loop times n calls of f, leafRounds times over, and returns the median
// round's whole-loop time per call in ns together with the mallocs per call
// of the last round (allocation counts do not vary between rounds).
func loop(n int, f func(i int)) (nsPerCall, allocsPerCall float64) {
	f(0) // warm pools and lazily built state
	rounds := make([]float64, leafRounds)
	var before, after runtime.MemStats
	for r := range rounds {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
		runtime.ReadMemStats(&after)
	}
	sort.Float64s(rounds)
	return rounds[len(rounds)/2], float64(after.Mallocs-before.Mallocs) / float64(n)
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// handlerLoop drives a handler with one in-memory request replayed n times:
// no socket, no client, the request object reused so the harness itself
// allocates nothing.
func handlerLoop(n int, h http.Handler, path, contentType string, payloads [][]byte) (nsPerCall, allocsPerCall float64) {
	br := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, path, br)
	req.Header.Set("Content-Type", contentType)
	body := io.NopCloser(br)
	w := &discardWriter{h: make(http.Header, 4)}
	return loop(n, func(i int) {
		br.Reset(payloads[i%len(payloads)])
		req.Body = body
		h.ServeHTTP(w, req)
	})
}

// cannedRT answers every request with a fixed body: it isolates the
// client's own encode/decode work from transport and server.
type cannedRT struct {
	contentType string
	body        []byte
}

func (c cannedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body) // in-memory reader: cannot fail
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {c.contentType}},
		Body:          io.NopCloser(bytes.NewReader(c.body)),
		ContentLength: int64(len(c.body)),
		Request:       req,
	}, nil
}

// leafLoops times each layer's public entry point in isolation, on the run's
// artifact and load sessions. div divides every iteration count (1 in a
// run; tests pass a large one to walk the ladder once).
func leafLoops(art *core.Artifact, modelDir string, sessions []loadSession, div int) (map[string]float64, error) {
	out := make(map[string]float64)
	loop := func(n int, f func(i int)) (float64, float64) { return loop(max(n/div, 1), f) }
	handlerLoop := func(n int, h http.Handler, path, contentType string, payloads [][]byte) (float64, float64) {
		return handlerLoop(max(n/div, 1), h, path, contentType, payloads)
	}
	eng, err := core.NewEngineFromStore(art.Store)
	if err != nil {
		return nil, err
	}
	asTrace := func(s *loadSession) *trace.Session {
		return &trace.Session{ID: s.id, StartUnix: s.startUnix, Features: s.features, Throughput: []float64{1}}
	}
	first := asTrace(&sessions[0])
	model, _ := eng.ModelFor(first)
	tput := sessions[0].tput

	filter := hmm.NewFilter(model)
	out["hmm.filter_step_ns"], _ = loop(leafIters, func(i int) {
		filter.Observe(tput[i%len(tput)])
		sink = filter.PredictAhead(1)
	})

	store := sessionstore.New[int, int](0, 16)
	ids := make([]string, len(sessions))
	now := time.Now()
	for i := range sessions {
		ids[i] = sessions[i].id
		v := i
		store.Put(ids[i], &v, now)
	}
	out["sessionstore.get_ns"], _ = loop(leafIters, func(i int) {
		v, _ := store.Get(ids[i%len(ids)], now)
		sink = float64(*v)
	})
	one := 1
	out["sessionstore.put_delete_ns"], _ = loop(leafIters, func(i int) {
		store.Put("leaf-churn", &one, now)
		store.Delete("leaf-churn")
	})

	ns, _ := loop(leafIters, func(i int) {
		sink = eng.NewSessionPredictor(asTrace(&sessions[i%len(sessions)])).InitialPrediction()
	})
	out["core.new_session_us"] = ns / 1e3
	initial := eng.NewSessionPredictor(first).InitialPrediction()
	ns, _ = loop(leafStartIters, func(i int) {
		sink = engine.EstimateRebuffer(video.Default(), model, initial, 30, 1) // StartSession's arguments
	})
	out["engine.rebuffer_estimate_us"] = ns / 1e3

	svc, reg, err := newService(art)
	if err != nil {
		return nil, err
	}
	for i := range sessions {
		svc.StartSession(sessions[i].id, sessions[i].features, sessions[i].startUnix)
	}
	out["engine.observe_ns"], out["engine.observe_allocs"] = loop(leafIters, func(i int) {
		sink, _ = svc.ObserveAndPredict(ids[i%len(ids)], tput[i%len(tput)], 1)
	})
	bops := make([]engine.BatchOp, batchOps)
	bres := make([]engine.BatchResult, batchOps)
	wops := make([]wire.Op, batchOps)
	for i := range bops {
		id := []byte(ids[i%len(ids)])
		bops[i] = engine.BatchOp{SessionID: id, ObservedMbps: tput[i%len(tput)], Horizon: 1, HasObserve: true}
		wops[i] = wire.Op{SessionID: id, ObservedMbps: tput[i%len(tput)], Horizon: 1, HasObserve: true}
	}
	ns, _ = loop(leafIters/batchOps, func(int) { svc.ServeBatch(bops, bres) })
	out["engine.batch_op_ns"] = ns / batchOps

	// One op's four codec steps: request encode and decode, response encode
	// and decode. Buffers are reused as the server's pooled scratch does.
	lim := wire.DefaultLimits()
	var reqBuf, respBuf []byte
	out["wire.op_codec_ns"], _ = loop(leafIters, func(i int) {
		reqBuf = wire.AppendOp(reqBuf[:0], wops[i%batchOps])
		f, _ := wire.DecodeFrame(reqBuf, lim)
		op, _ := wire.DecodeOp(f.Payload, lim)
		respBuf = wire.AppendPrediction(respBuf[:0], op.ObservedMbps)
		f, _ = wire.DecodeFrame(respBuf, lim)
		sink, _ = wire.DecodePrediction(f.Payload)
	})
	var dops []wire.Op
	wres := make([]wire.OpResult, batchOps)
	var dres []wire.OpResult
	ns, _ = loop(leafIters/batchOps, func(int) {
		reqBuf = wire.AppendBatch(reqBuf[:0], wops)
		f, _ := wire.DecodeFrame(reqBuf, lim)
		dops, _ = wire.DecodeBatch(f.Payload, lim, dops[:0])
		respBuf = wire.AppendBatchResult(respBuf[:0], 1, wres)
		f, _ = wire.DecodeFrame(respBuf, lim)
		dres, _, _ = wire.DecodeBatchResult(f.Payload, lim, dres[:0])
	})
	out["wire.batch_codec_ns_per_op"] = ns / batchOps

	// The four handler loops: Server.Handler().ServeHTTP on an in-memory
	// request, over the same resident sessions.
	h := newServer(svc, reg).Handler()
	jsonBodies := make([][]byte, len(ids))
	wireBodies := make([][]byte, len(ids))
	startBodies := make([][]byte, len(ids))
	for i, id := range ids {
		jsonBodies[i] = []byte(`{"session_id":"` + id + `","observed_mbps":2.5,"horizon":1}`)
		wireBodies[i] = wire.AppendOp(nil, wire.Op{SessionID: []byte(id), ObservedMbps: 2.5, Horizon: 1, HasObserve: true})
		f := sessions[i].features
		startBodies[i] = []byte(`{"session_id":"` + id + `","features":{"client_ip":"` + f.ClientIP + `","isp":"` + f.ISP +
			`","as":"` + f.AS + `","province":"` + f.Province + `","city":"` + f.City + `","server":"` + f.Server + `"}}`)
	}
	ns, out["httpapi.handler_json_allocs"] = handlerLoop(leafSlowIters, h, "/v1/predict", "application/json", jsonBodies)
	out["httpapi.handler_json_us"] = ns / 1e3
	ns, out["httpapi.handler_binary_allocs"] = handlerLoop(leafIters, h, "/v2/observe", wire.ContentType, wireBodies)
	out["httpapi.handler_binary_us"] = ns / 1e3
	ns, _ = handlerLoop(leafIters/batchOps, h, "/v2/batch", wire.ContentType, [][]byte{wire.AppendBatch(nil, wops)})
	out["httpapi.handler_batch_ns_per_op"] = ns / batchOps
	ns, _ = handlerLoop(leafStartIters, h, "/v1/session/start", "application/json", startBodies)
	out["httpapi.handler_start_us"] = ns / 1e3

	// The client's own work per call, behind a transport that answers from
	// memory.
	jsonClient := newClient("http://leaf.invalid", false, cannedRT{"application/json", []byte(`{"prediction_mbps":2.5}` + "\n")})
	_, out["httpapi.client_json_allocs"] = loop(leafSlowIters, func(i int) {
		sink, _ = jsonClient.ObserveAndPredict(ids[i%len(ids)], 2.5, 1)
	})
	wireClient := newClient("http://leaf.invalid", true, cannedRT{wire.ContentType, wire.AppendPrediction(nil, 2.5)})
	_, out["httpapi.client_binary_allocs"] = loop(leafSlowIters, func(i int) {
		sink, _ = wireClient.ObserveAndPredict(ids[i%len(ids)], 2.5, 1)
	})

	// What a booting server does with -model-dir before it can answer.
	ns, _ = loop(leafLoadIters, func(int) {
		r, err := registry.Open(modelDir)
		if err != nil {
			return
		}
		if a, err := r.Latest(); err == nil {
			_, _ = engine.NewServiceFromArtifact(a, core.DefaultConfig(), video.Default(), engine.ServiceOptions{})
		}
	})
	out["registry.load_ms"] = ns / 1e6
	return out, nil
}

// hostReference measures the machine, not the repo: an ALU spin and a bare
// net/http echo over loopback with the run's pinning and connection count.
// A run whose numbers moved together with these was disturbed, not regressed.
func hostReference() (map[string]float64, error) {
	const spins = 200_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < spins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinMops := spins / 1e6 / time.Since(start).Seconds()
	sink = float64(x)

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body) // echo: a short write only fails the client's read below
	}))
	defer srv.Close()
	const calls = 4000
	lat := make([][]int64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
			for i := 0; i < calls; i++ {
				sent := time.Now()
				resp, err := hc.Post(srv.URL, "application/octet-stream", strings.NewReader("0123456789abcdef"))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], int64(time.Since(sent)))
			}
		}(c)
	}
	wg.Wait()
	var all []int64
	for c := range lat {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, lat[c]...)
	}
	return map[string]float64{"host.spin_mops": spinMops, "host.echo_rtt_us": medianNs(all) / 1e3}, nil
}
