package main

import (
	"fmt"
	"math/rand"

	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
)

// Shape of the run. README.md explains each choice; the sizes that differ
// from the issue text are the ones the driver's time cap forced.
const (
	conns            = 2    // closed-loop connections, one goroutine each
	trainSessions    = 1500 // tracegen sessions handed to cs2p-train
	residentSessions = 256  // resident set of the three steady workloads
	startGroups      = 16   // registration is timed in this many consecutive groups
	batchOps         = 64   // observe ops per /v2/batch frame
	churnObserves    = 8    // observe+predict calls per churn session
	warmupSlices     = 3
	measuredSlices   = 30
	setupRepeats     = 3 // set-ups per end-to-end run; setup_s is their median
	minP99Samples    = 1000
)

type kind int

const (
	steady kind = iota // resident sessions, one observe+predict per request
	batch              // resident sessions, batchOps observes per request
	churn              // start, churnObserves observes, log, with fresh ids
)

type workload struct {
	name   string
	why    string
	kind   kind
	binary bool // v2 binary wire instead of JSON v1 for the per-chunk call
	routed bool // cs2p-router in front of two replicas instead of one server
}

var workloads = []workload{
	{name: "steady-json-direct", kind: steady,
		why: "the paper's per-chunk JSON call against one server: httpapi JSON codec and net/http dominate, engine is ~1%"},
	{name: "steady-binary-routed", kind: steady, binary: true, routed: true,
		why: "same op stream over binary v2 through the router and 2 replicas: the codec is nearly free, the router hop does the work"},
	{name: "batch-binary-direct", kind: batch, binary: true,
		why: "/v2/batch frames of 64 observes: transport amortised 64x, so engine.ServeBatch, sessionstore and hmm.Filter dominate"},
	{name: "churn-json-routed", kind: churn, routed: true,
		why: "start, 8 observes, log with fresh ids through the router: the write paths, dominated by engine.StartSession"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadSession is one session the driver plays: identity and features for
// start, and the throughput series it reports chunk by chunk.
type loadSession struct {
	id        string
	features  trace.Features
	startUnix int64
	tput      []float64
}

// generatePopulation is the one tracegen population of every run: cs2p-train
// learns from it and the load sessions are drawn from it, so their features
// hit trained clusters. SmallConfig's shape (24 feature cells) keeps every
// cell above cs2p-train's default -min-group at trainSessions sessions.
//
// The population does not depend on -seed. What a start costs depends on the
// cluster model it lands on (5.8 to 9.2 ms across ten seeded populations), and
// so do the trained model's size and training time; with a seeded population
// start_p50_ms, setup_s and rss_mb moved 15-25% from seed to seed for reasons
// that have nothing to do with the code under test. The seed picks which
// sessions are played and in what order.
func generatePopulation() *trace.Dataset {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = trainSessions
	d, _ := tracegen.Generate(cfg)
	return d
}

// drawSessions picks n sessions (all eligible ones when n <= 0) in a seeded
// order from the population, skipping any too short for a churn session.
func drawSessions(d *trace.Dataset, seed int64, n int) []loadSession {
	var out []loadSession
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(d.Sessions)) {
		s := d.Sessions[i]
		if len(s.Throughput) < churnObserves {
			continue
		}
		out = append(out, loadSession{
			id:        fmt.Sprintf("load-%04d", len(out)),
			features:  s.Features,
			startUnix: s.StartUnix,
			tput:      s.Throughput,
		})
		if len(out) == n {
			break
		}
	}
	return out
}

// plan is a workload's deterministic op stream over its load sessions.
// Connection c owns sessions c, c+conns, c+2*conns, ... and nobody else
// touches them, so each session sees its ops in one fixed order whatever the
// interleaving of the connections.
type plan struct {
	sessions []loadSession
}

// owned is how many sessions connection c owns.
func (p *plan) owned(c int) int { return (len(p.sessions) - c + conns - 1) / conns }

// steadyOp is the k-th observe of connection c: round-robin over the
// connection's sessions, each session walking its own throughput series.
func (p *plan) steadyOp(c, k int) (sess int, observed float64) {
	own := p.owned(c)
	sess = c + (k%own)*conns
	tput := p.sessions[sess].tput
	return sess, tput[(k/own)%len(tput)]
}

// churnSession is the j-th session connection c plays: a pool session under
// a fresh id.
func (p *plan) churnSession(c, j int) (pool int, id string) {
	return (c + j*conns) % len(p.sessions), fmt.Sprintf("churn-%d-%d", c, j)
}
