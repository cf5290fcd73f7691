package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/wire"
)

// newClient is the driver's view of the tier: the real httpapi.Client with
// its default 5 s timeout, on a transport of its own that keeps its
// connection alive. One client per goroutine means exactly one TCP
// connection per goroutine and no churn.
func newClient(base string, binary bool, rt http.RoundTripper) *httpapi.Client {
	if rt == nil {
		rt = &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
	}
	c := httpapi.NewClientWith(base, &http.Client{Timeout: 5 * time.Second, Transport: rt})
	c.SetWireBinary(binary)
	return c
}

// cpuSource is a process whose CPU time the run attributes: a tier process
// ("server", "router") or the driver itself.
type cpuSource struct {
	name string
	pid  int
}

// reqClass says which latency series a request feeds.
type reqClass int

const (
	primaryReq reqClass = iota // observe+predict, or the batch request
	startReq                   // StartSession
	otherReq                   // the end-of-session log
)

// stream plays a workload's op stream through one client, a unit at a time,
// checking every answer against the oracle. The measured phase runs one
// stream per connection; the traced replay runs a single one for both.
type stream struct {
	wl     workload
	plan   *plan
	orc    *oracle
	preds  []*core.SessionPredictor // oracle sessions of the resident set, by session index
	client *httpapi.Client
	// Batch scratch, reused across frames so the driver allocates nothing
	// per op.
	ops  []wire.Op
	sess []int
	ids  [][]byte
}

// doFunc issues one request of the stream: it runs call, which returns how
// many of the request's ops were answered correctly, accounts for it, and
// reports whether the stream should go on.
type doFunc func(class reqClass, ops int, call func() (okOps int, err error)) bool

func boolOps(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// register starts the resident set in session order, filling preds.
func (s *stream) register(do doFunc) {
	s.preds = make([]*core.SessionPredictor, len(s.plan.sessions))
	for i := range s.plan.sessions {
		ls := &s.plan.sessions[i]
		s.preds[i] = s.orc.start(ls.id, ls)
		if !s.start(ls.id, ls, s.preds[i], do) {
			return
		}
	}
}

func (s *stream) start(id string, ls *loadSession, p *core.SessionPredictor, do doFunc) bool {
	return do(startReq, 1, func() (int, error) {
		resp, err := s.client.StartSession(id, ls.features, ls.startUnix)
		return boolOps(err == nil && startOK(p, resp)), err
	})
}

func (s *stream) observe(id string, p *core.SessionPredictor, observed float64, do doFunc) bool {
	return do(primaryReq, 1, func() (int, error) {
		pred, err := s.client.ObserveAndPredict(id, observed, 1)
		return boolOps(err == nil && observeOK(p, observed, pred)), err
	})
}

// unit plays unit k of connection c — one observe, one batch frame, or one
// whole churn session — and reports whether the stream should go on.
func (s *stream) unit(c, k int, do doFunc) bool {
	switch s.wl.kind {
	case steady:
		si, observed := s.plan.steadyOp(c, k)
		return s.observe(s.plan.sessions[si].id, s.preds[si], observed, do)
	case batch:
		if s.ops == nil {
			s.ops, s.sess = make([]wire.Op, batchOps), make([]int, batchOps)
			for _, ls := range s.plan.sessions {
				s.ids = append(s.ids, []byte(ls.id))
			}
		}
		for i := range s.ops {
			si, observed := s.plan.steadyOp(c, k*batchOps+i)
			s.sess[i] = si
			s.ops[i] = wire.Op{SessionID: s.ids[si], ObservedMbps: observed, Horizon: 1, HasObserve: true}
		}
		return do(primaryReq, batchOps, func() (int, error) {
			res, _, err := s.client.Batch(s.ops)
			if err != nil || len(res) != batchOps {
				return 0, err
			}
			okOps := 0
			for i, got := range res {
				okOps += boolOps(got.Code == wire.OpOK && observeOK(s.preds[s.sess[i]], s.ops[i].ObservedMbps, got.PredictionMbps))
			}
			return okOps, nil
		})
	default: // churn
		pi, id := s.plan.churnSession(c, k)
		ls := &s.plan.sessions[pi]
		p := s.orc.start(id, ls)
		if !s.start(id, ls, p, do) {
			return false
		}
		for e := 0; e < churnObserves; e++ {
			if !s.observe(id, p, ls.tput[e], do) {
				return false
			}
		}
		return do(otherReq, 1, func() (int, error) {
			err := s.client.Log(engine.SessionLog{SessionID: id, QoE: 1, Strategy: "benchmark"})
			return boolOps(err == nil), err
		})
	}
}

// sliceAcc is what one connection completed inside one slice.
type sliceAcc struct {
	lat   []int64 // primary round trips, ns
	start []int64 // start round trips, ns
	ops   int     // verified ops
}

// driveRun is one closed-loop measured phase: conns goroutines, each with
// its own connection and its own share of the sessions, issuing the next
// request only when the previous answer has been checked against the oracle.
type driveRun struct {
	wl       workload
	plan     *plan
	orc      *oracle
	preds    []*core.SessionPredictor // from registration; shared, but each connection touches only its own sessions
	url      string
	sliceLen time.Duration
	sources  []cpuSource // tier processes; the driver is appended by drive

	ctx       context.Context
	t0        time.Time
	slices    int
	completed atomic.Int64 // verified ops, read at slice boundaries
}

type worker struct {
	run       *driveRun
	c         int
	stream    *stream
	acc       []sliceAcc
	attempted int
	failed    int
	firstFail string
}

// do times one request and files it under the slice its answer arrived in.
// It returns false once the measured phase is over or cancelled.
func (w *worker) do(class reqClass, ops int, call func() (int, error)) bool {
	sent := time.Now()
	okOps, err := call()
	end := time.Now()
	idx := int(end.Sub(w.run.t0) / w.run.sliceLen)
	if idx >= w.run.slices || w.run.ctx.Err() != nil {
		return false
	}
	w.attempted += ops
	w.failed += ops - okOps
	if okOps < ops && w.firstFail == "" {
		w.firstFail = fmt.Sprintf("connection %d, slice %d: %d of %d ops failed (transport error: %v)", w.c, idx, ops-okOps, ops, err)
	}
	a := &w.acc[idx]
	a.ops += okOps
	w.run.completed.Add(int64(okOps))
	switch class {
	case primaryReq:
		a.lat = append(a.lat, int64(end.Sub(sent)))
	case startReq:
		a.start = append(a.start, int64(end.Sub(sent)))
	}
	return true
}

// boundary is the accounting read at one slice boundary.
type boundary struct {
	completed int64
	cpu       []sched // per source
}

func (r *driveRun) sample() (boundary, error) {
	b := boundary{completed: r.completed.Load(), cpu: make([]sched, len(r.sources))}
	for i, src := range r.sources {
		s, err := readSched(src.pid)
		if err != nil {
			return b, err
		}
		b.cpu[i] = s
	}
	return b, nil
}

// measured is the per-slice outcome of a drive, warm-up already dropped.
type measured struct {
	attempted, failed int
	firstFail         string
	opsPerS           []float64 // per slice
	p50Ms             []float64 // per slice
	startP50Ms        []float64 // per slice with at least one start (churn only)
	sliceP99Ms        []float64 // per slice, however few samples it has (raw evidence only)
	samples           []int     // primary samples per slice
	p99Ms             []float64 // per block of >= minP99Samples samples
	p99MinSamples     int
	cpuUsPerOp        map[string][]float64 // per source name, per slice
	switchesPerOp     map[string]float64   // per source name, whole window
}

// drive runs the measured phase: warmupSlices discarded slices followed by
// measuredSlices slices of sliceLen each.
func (r *driveRun) drive(parent context.Context) (*measured, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	r.ctx = ctx
	r.slices = warmupSlices + measuredSlices
	r.sources = append(r.sources, cpuSource{name: "driver", pid: os.Getpid()})
	workers := make([]*worker, conns)
	for c := range workers {
		workers[c] = &worker{run: r, c: c, acc: make([]sliceAcc, r.slices),
			stream: &stream{wl: r.wl, plan: r.plan, orc: r.orc, preds: r.preds, client: newClient(r.url, r.wl.binary, nil)}}
	}
	bounds := make([]boundary, r.slices+1)
	r.t0 = time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for k := 0; w.stream.unit(w.c, k, w.do); k++ {
			}
		}(w)
	}
	var sampleErr error
	for i := range bounds {
		select {
		case <-time.After(time.Until(r.t0.Add(time.Duration(i) * r.sliceLen))):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		if bounds[i], sampleErr = r.sample(); sampleErr != nil {
			cancel() // a tier process is gone: stop the workers now
			break
		}
	}
	wg.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}

	m := &measured{
		cpuUsPerOp:    make(map[string][]float64),
		switchesPerOp: make(map[string]float64),
	}
	for _, w := range workers {
		m.attempted += w.attempted
		m.failed += w.failed
		if m.firstFail == "" {
			m.firstFail = w.firstFail
		}
	}
	var latSlices [][]int64
	for i := warmupSlices; i < r.slices; i++ {
		var lat, start []int64
		ops := 0
		for _, w := range workers {
			lat = append(lat, w.acc[i].lat...)
			start = append(start, w.acc[i].start...)
			ops += w.acc[i].ops
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		sort.Slice(start, func(a, b int) bool { return start[a] < start[b] })
		m.opsPerS = append(m.opsPerS, float64(ops)/r.sliceLen.Seconds())
		m.samples = append(m.samples, len(lat))
		if len(lat) == 0 {
			return nil, fmt.Errorf("slice %d completed no primary request (%s)", i, m.firstFail)
		}
		m.p50Ms = append(m.p50Ms, percentileMs(lat, 0.5))
		m.sliceP99Ms = append(m.sliceP99Ms, percentileMs(lat, 0.99))
		if len(start) > 0 {
			m.startP50Ms = append(m.startP50Ms, percentileMs(start, 0.5))
		}
		latSlices = append(latSlices, lat)
		done := bounds[i+1].completed - bounds[i].completed
		if done <= 0 {
			return nil, fmt.Errorf("slice %d verified no op (%s)", i, m.firstFail)
		}
		perName := make(map[string]float64)
		for s, src := range r.sources {
			perName[src.name] += float64(bounds[i+1].cpu[s].cpuNs-bounds[i].cpu[s].cpuNs) / 1e3 / float64(done)
		}
		for name, v := range perName {
			m.cpuUsPerOp[name] = append(m.cpuUsPerOp[name], v)
		}
	}
	for _, b := range p99Blocks(latSlices, minP99Samples) {
		m.p99Ms = append(m.p99Ms, percentileMs(b, 0.99))
		if m.p99MinSamples == 0 || len(b) < m.p99MinSamples {
			m.p99MinSamples = len(b)
		}
	}
	first, last := bounds[warmupSlices], bounds[r.slices]
	for s, src := range r.sources {
		m.switchesPerOp[src.name] += float64(last.cpu[s].switches-first.cpu[s].switches) / float64(last.completed-first.completed)
	}
	return m, nil
}
