package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

// freshService trains a deliberately tiny engine and wraps it in a Service
// with its own metrics registry, so eviction tests see isolated counters
// instead of the shared harness service's accumulated state. The training
// dataset is returned too, so tests can Retrain concurrently with load.
func freshService(t testing.TB, shards int) (*Service, *trace.Dataset) {
	t.Helper()
	return freshServiceLogs(t, shards, 0)
}

// freshServiceLogs is freshService with a log ring of maxLogs entries
// (0: DefaultMaxLogs).
func freshServiceLogs(t testing.TB, shards, maxLogs int) (*Service, *trace.Dataset) {
	t.Helper()
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 120
	d, _ := tracegen.Generate(cfg)
	ecfg := core.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	ecfg.HMM.NStates = 2
	ecfg.HMM.MaxIters = 4
	eng, err := core.Train(d, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	// A two-chunk video keeps StartSession's Monte-Carlo rebuffer rollout
	// cheap; these tests start hundreds of sessions under -race.
	spec := video.Default()
	spec.LengthSeconds = 2 * spec.ChunkSeconds
	svc := NewServiceWithOptions(eng, ecfg, spec, ServiceOptions{Shards: shards, MaxLogs: maxLogs})
	svc.SetLogf(func(string, ...any) {})
	svc.SetMetrics(obs.NewRegistry())
	return svc, d
}

// hotRetrain trains a fresh engine on data with the service's own config and
// installs it as the next generation — a hot model swap the way a producer
// does it: train off to the side, then one atomic install.
func hotRetrain(svc *Service, data *trace.Dataset) error {
	e, err := core.Train(data, svc.cfg)
	if err != nil {
		return err
	}
	svc.InstallEngine(e)
	return nil
}

// TestLogRingEvictionOrderAndCounter pins the ring's contract: once full it
// evicts strictly oldest-first, and every eviction is counted on
// cs2p_engine_log_evictions_total. The ring is one per store, so the order
// is the same at any shard count (covered by sessionstore's own tests).
func TestLogRingEvictionOrderAndCounter(t *testing.T) {
	const cap, pushed = 50, 120
	svc, _ := freshServiceLogs(t, 1, cap)
	for i := 0; i < pushed; i++ {
		svc.EndSession(SessionLog{SessionID: fmt.Sprintf("seq-%03d", i), QoE: float64(i)})
	}
	logs := svc.Logs()
	if len(logs) != cap {
		t.Fatalf("retained %d logs, want %d", len(logs), cap)
	}
	for i, lg := range logs {
		if want := fmt.Sprintf("seq-%03d", pushed-cap+i); lg.SessionID != want {
			t.Fatalf("logs[%d] = %s, want %s (oldest-first eviction violated)", i, lg.SessionID, want)
		}
	}
	if got := svc.m.logEvictions.Value(); got != pushed-cap {
		t.Errorf("log eviction counter = %d, want %d", got, pushed-cap)
	}
}

// TestConcurrentEvictionRace hammers the session table and log rings from
// many goroutines while GC sweeps and a hot retrain swaps model snapshots
// concurrently (run with -race). At the end, every session is accounted
// for: started = ended + gc-evicted + still active, and the log eviction
// counter matches exactly what the ring dropped (whose retained entries
// stay in oldest-first push order, asserted below).
func TestConcurrentEvictionRace(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const workers, perWorker, logCap = 8, 40, 25
			svc, data := freshServiceLogs(t, shards, logCap)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						id := fmt.Sprintf("w%d-%d", w, i)
						svc.StartSession(id, trace.Features{}, 1000)
						if _, err := svc.ObserveAndPredict(id, 2.5, 1); err != nil {
							t.Error(err)
							return
						}
						if i%2 == 0 {
							// Half the sessions end cleanly (and feed the ring)...
							svc.EndSession(SessionLog{SessionID: id, QoE: float64(w*perWorker + i)})
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() {
				// ...while GC sweeps concurrently with a horizon no live
				// session reaches, exercising the lock paths without
				// evicting anything.
				for {
					select {
					case <-done:
						return
					default:
						svc.GC(time.Hour)
						time.Sleep(100 * time.Microsecond)
					}
				}
			}()
			// A hot retrain races the whole sweep: model snapshots must swap
			// without blocking or corrupting a single request.
			retrained := make(chan error, 1)
			go func() { retrained <- hotRetrain(svc, data) }()
			wg.Wait()
			if err := <-retrained; err != nil {
				t.Fatal(err)
			}
			close(done)

			const total = workers * perWorker
			ended := total / 2
			if got := svc.m.sessionsStarted.Value(); got != total {
				t.Errorf("sessions started = %d, want %d", got, total)
			}
			if got := svc.m.sessionsEnded.Value(); got != uint64(ended) {
				t.Errorf("sessions ended = %d, want %d", got, ended)
			}
			if got := svc.ActiveSessions(); got != total-ended {
				t.Errorf("active sessions = %d, want %d", got, total-ended)
			}
			if svc.ModelGeneration() != 1 {
				t.Errorf("model generation = %d, want 1 after the concurrent retrain", svc.ModelGeneration())
			}
			// Eviction accounting: counter == pushed - retained, and the
			// retained logs come back in push (sequence) order, which per
			// shard is exactly oldest-first ring order. Each worker's QoE
			// values ascend, so per-worker order must survive the merge.
			logs := svc.Logs()
			if len(logs) > logCap {
				t.Errorf("retained %d logs, cap %d", len(logs), logCap)
			}
			if got := svc.m.logEvictions.Value(); got != uint64(ended-len(logs)) {
				t.Errorf("log evictions = %d, want %d (pushed %d - retained %d)", got, ended-len(logs), ended, len(logs))
			}
			lastQoE := make(map[byte]float64)
			for _, lg := range logs {
				w := lg.SessionID[1] // "w3-17" -> worker digit (workers < 10)
				if prev, ok := lastQoE[w]; ok && lg.QoE <= prev {
					t.Fatalf("worker %c logs out of order: %v then %v (oldest-first violated)", w, prev, lg.QoE)
				}
				lastQoE[w] = lg.QoE
			}
			// Now age everything out: a zero-idle GC must evict every
			// survivor and count each one.
			time.Sleep(time.Millisecond)
			n := svc.GC(time.Microsecond)
			if n != total-ended {
				t.Errorf("GC evicted %d, want %d", n, total-ended)
			}
			if got := svc.m.gcEvictions.Value(); got != uint64(n) {
				t.Errorf("gc eviction counter = %d, want %d", got, n)
			}
			if svc.ActiveSessions() != 0 {
				t.Errorf("%d sessions survived the sweep", svc.ActiveSessions())
			}
		})
	}
}
