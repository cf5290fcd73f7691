package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// BenchmarkServiceConcurrent drives a mixed StartSession/Observe/Predict
// workload through the service with b.RunParallel, at one shard (the old
// global-lock shape) versus sharded stores. Each parallel worker owns one
// long-lived session (the common per-player pattern) and periodically opens
// and ends a short-lived one, so the session table, the log rings, and the
// per-shard locks all churn. On a multi-core machine the sharded runs
// should clear >=1.5x the single-shard throughput; on one core the point of
// the benchmark is the allocation count and the absence of regression.
//
// Every 16th op is a StartSession, which used to run the 30-future rebuffer
// rollout per session: that rollout was then ~98% of the mix (23.7 us/op).
// With the forecast served from the per-cluster memo it measures what the
// name says, the sharded store under churn (0.48 us/op). `make bench` runs it.
func BenchmarkServiceConcurrent(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			svc, _ := freshService(b, shards)
			var ctr atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := fmt.Sprintf("g%d", ctr.Add(1))
				svc.StartSession(id, trace.Features{ISP: "isp-1", City: "c1"}, 1000)
				i := 0
				for pb.Next() {
					switch i % 16 {
					case 0:
						sid := fmt.Sprintf("%s-%d", id, i)
						svc.StartSession(sid, trace.Features{ISP: "isp-1", City: "c1"}, 1000)
						svc.EndSession(SessionLog{SessionID: sid})
					case 15:
						if _, err := svc.Predict(id, 2); err != nil {
							b.Fatal(err)
						}
					default:
						if _, err := svc.ObserveAndPredict(id, 2.5, 1); err != nil {
							b.Fatal(err)
						}
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStartSession times the session-start path on the paper's full
// video. warm: one model generation, the cluster's forecast already filled —
// route, build the filter, three loads; allocation-counted. cold: a fresh
// snapshot (empty cells) before every start, so each pays the one forecast
// rollout a cluster costs per generation.
func BenchmarkStartSession(b *testing.B) {
	trained, data := freshService(b, 1)
	svc := NewService(trained.Engine(), trained.cfg, video.Default())
	s := data.Sessions[0]
	b.Run("warm", func(b *testing.B) {
		svc.StartSession("bench", s.Features, s.StartUnix)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.StartSession("bench", s.Features, s.StartUnix)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc.InstallEngine(trained.Engine())
			svc.StartSession("bench", s.Features, s.StartUnix)
		}
	})
}

// TestRetrainDuringLoad pins the lock-free model plane (run under -race):
// hot retrains land while 8 writers stream sessions through the service,
// and not one request may fail or observe a torn model. Readers must make
// progress while training is in flight — if a model swap still blocked the
// serving path the way the old write-locked swap did, the mid-training
// request count would be zero.
func TestRetrainDuringLoad(t *testing.T) {
	svc, data := freshService(t, 0) // default shard count, like production
	const workers = 8
	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		ops        atomic.Int64
		midRetrain atomic.Int64
		training   atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := fmt.Sprintf("load-%d-%d", w, i)
				resp := svc.StartSession(id, trace.Features{ISP: "isp-1"}, 1000)
				if resp.InitialPredictionMbps <= 0 {
					t.Errorf("bad initial prediction %v", resp.InitialPredictionMbps)
					return
				}
				for j := 0; j < 4; j++ {
					if _, err := svc.ObserveAndPredict(id, 2.0+float64(j), 1); err != nil {
						t.Errorf("observe during retrain: %v", err)
						return
					}
				}
				if _, err := svc.Predict(id, 3); err != nil {
					t.Errorf("predict during retrain: %v", err)
					return
				}
				svc.EndSession(SessionLog{SessionID: id})
				ops.Add(1)
				if training.Load() {
					midRetrain.Add(1)
				}
			}
		}(w)
	}
	const retrains = 3
	for i := 0; i < retrains; i++ {
		training.Store(true)
		if err := hotRetrain(svc, data); err != nil {
			t.Fatal(err)
		}
		training.Store(false)
	}
	stop.Store(true)
	wg.Wait()
	if got := svc.ModelGeneration(); got != retrains {
		t.Errorf("model generation = %d, want %d", got, retrains)
	}
	if midRetrain.Load() == 0 {
		t.Errorf("no requests completed while training was in flight (readers blocked?); total ops %d", ops.Load())
	}
	// Every session either ended or is still registered — a snapshot swap
	// must not lose table entries.
	if svc.ActiveSessions() != 0 {
		t.Errorf("%d sessions leaked", svc.ActiveSessions())
	}
}
