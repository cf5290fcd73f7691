// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact, delegating to internal/experiments), plus
// microbenchmarks of the hot paths (HMM filtering and training, MPC
// decisions, cluster aggregation).
//
// The experiment benchmarks run at small scale by default so
// `go test -bench=.` completes in minutes; set CS2P_BENCH_FULL=1 for the
// full-scale run that EXPERIMENTS.md reports. Each experiment's output rows
// are logged once (visible with -v).
package cs2p_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"cs2p/internal/abr"
	"cs2p/internal/cluster"
	"cs2p/internal/core"
	"cs2p/internal/experiments"
	"cs2p/internal/hmm"
	"cs2p/internal/qoe"
	"cs2p/internal/sim"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

func benchContext() *experiments.Context {
	benchCtxOnce.Do(func() {
		scale := experiments.ScaleSmall
		if os.Getenv("CS2P_BENCH_FULL") == "1" {
			scale = experiments.ScaleFull
		}
		benchCtx = experiments.NewContext(scale)
	})
	return benchCtx
}

// runExperiment is the shared shape of every table/figure benchmark.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	ctx := benchContext()
	var out string
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		out = res.String()
	}
	b.Log("\n" + out)
}

// One benchmark per paper artifact (DESIGN.md §4).

func BenchmarkTable2DatasetSummary(b *testing.B)         { runExperiment(b, "T2") }
func BenchmarkObservation1SimplePredictors(b *testing.B) { runExperiment(b, "O1") }
func BenchmarkFigure2QoEvsError(b *testing.B)            { runExperiment(b, "F2") }
func BenchmarkFigure3DatasetCDFs(b *testing.B)           { runExperiment(b, "F3") }
func BenchmarkFigure4Stateful(b *testing.B)              { runExperiment(b, "F4") }
func BenchmarkFigure5Similarity(b *testing.B)            { runExperiment(b, "F5") }
func BenchmarkFigure6FeatureCombos(b *testing.B)         { runExperiment(b, "F6") }
func BenchmarkFigure8HMMExample(b *testing.B)            { runExperiment(b, "F8") }
func BenchmarkFigure9aInitialError(b *testing.B)         { runExperiment(b, "F9a") }
func BenchmarkFigure9aFCC(b *testing.B)                  { runExperiment(b, "F9a-fcc") }
func BenchmarkFigure9bMidstreamError(b *testing.B)       { runExperiment(b, "F9b") }
func BenchmarkFigure9cLookahead(b *testing.B)            { runExperiment(b, "F9c") }
func BenchmarkFigure10QoE(b *testing.B)                  { runExperiment(b, "F10") }
func BenchmarkFigure11Sensitivity(b *testing.B)          { runExperiment(b, "F11") }
func BenchmarkPilotDeployment(b *testing.B)              { runExperiment(b, "P1") }

// Ablation benches for the design choices DESIGN.md §5 calls out.

func BenchmarkAblationClusterFeatures(b *testing.B)   { runExperiment(b, "A1") }
func BenchmarkAblationHMMPredictionRule(b *testing.B) { runExperiment(b, "A2") }
func BenchmarkAblationEmission(b *testing.B)          { runExperiment(b, "A3") }
func BenchmarkAblationInitialRule(b *testing.B)       { runExperiment(b, "A4") }
func BenchmarkAblationRiskAware(b *testing.B)         { runExperiment(b, "A5") }

// --- Microbenchmarks of the hot paths ---

func benchModel() *hmm.Model {
	m, err := hmm.Train([][]float64{
		{1, 1.1, 0.9, 3, 3.2, 2.9, 1, 1.2, 5, 5.1, 4.9, 3, 3.1},
		{2, 2.1, 1.9, 2.2, 4, 4.1, 3.9, 1, 1.1, 0.9, 2, 2.1},
	}, hmm.TrainConfig{NStates: 3, MaxIters: 20, Tol: 1e-5, VarFloor: 1e-4, StickyInit: 0.8})
	if err != nil {
		panic(err)
	}
	return m
}

// BenchmarkHMMFilterStep measures one Predict+Observe round, the per-chunk
// cost the paper reports at <10 ms (two matrix multiplications); ours is
// sub-microsecond.
func BenchmarkHMMFilterStep(b *testing.B) {
	m := benchModel()
	f := hmm.NewFilter(m)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict()
		f.Observe(1 + 4*r.Float64())
	}
}

// BenchmarkHMMTrain measures Baum-Welch over a realistic cluster (40
// sessions x 60 epochs, 6 states). Allocations are reported because the EM
// hot loop is engineered to run entirely on a reusable scratch buffer.
func BenchmarkHMMTrain(b *testing.B) {
	truth := benchModel()
	r := rand.New(rand.NewSource(2))
	seqs := make([][]float64, 40)
	for i := range seqs {
		_, seqs[i] = truth.Sample(r, 60)
	}
	cfg := hmm.DefaultTrainConfig()
	cfg.MaxIters = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmm.Train(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainDataset builds the shared offline-training fixture for the
// engine and rule-search benchmarks.
func benchTrainDataset() *trace.Dataset {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 800
	d, _ := tracegen.Generate(cfg)
	return d
}

// BenchmarkEngineTrain measures the full offline pipeline (rule search +
// per-cluster Baum-Welch + global fallback) at Parallelism=1 and at one
// worker per CPU. The trained engines are bit-identical; only wall clock
// changes, so the pair quantifies the pool's speedup on this machine.
func BenchmarkEngineTrain(b *testing.B) {
	d := benchTrainDataset()
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			ecfg := core.DefaultConfig()
			ecfg.Cluster.MinGroupSize = 10
			ecfg.HMM.NStates = 4
			ecfg.HMM.MaxIters = 20
			ecfg.MinClusterSessions = 8
			ecfg.Parallelism = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(d, ecfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterSelect measures the §5.1 candidate-rule search over every
// cell of the training index.
func BenchmarkClusterSelect(b *testing.B) {
	d := benchTrainDataset()
	ccfg := cluster.DefaultConfig()
	ccfg.MinGroupSize = 10
	c := cluster.New(ccfg, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Select()
	}
}

// BenchmarkMPCDecision measures one MPC receding-horizon decision.
func BenchmarkMPCDecision(b *testing.B) {
	spec := video.Default()
	m := benchModel()
	f := hmm.NewFilter(m)
	f.Observe(3)
	ctrl := abr.MPC{}
	st := abr.State{ChunkIndex: 5, NumChunks: 44, LastLevel: 2, BufferSeconds: 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.ChooseLevel(spec, st, filterPred{f})
	}
}

type filterPred struct{ f *hmm.Filter }

func (p filterPred) PredictAhead(k int) float64 { return p.f.PredictAhead(k) }

// BenchmarkOfflineOptimal measures the n-QoE denominator DP for one
// 44-chunk playback.
func BenchmarkOfflineOptimal(b *testing.B) {
	spec := video.Default()
	r := rand.New(rand.NewSource(3))
	tput := make([]float64, spec.NumChunks())
	for i := range tput {
		tput[i] = 0.5 + 8*r.Float64()
	}
	opt := abr.OfflineOptimal{Weights: qoe.DefaultWeights()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := opt.Best(spec, tput); v == 0 {
			b.Fatal("degenerate optimum")
		}
	}
}

// BenchmarkSimulatedPlayback measures one full trace-driven playback with
// MPC and a perfect oracle.
func BenchmarkSimulatedPlayback(b *testing.B) {
	spec := video.Default()
	r := rand.New(rand.NewSource(4))
	tput := make([]float64, spec.NumChunks())
	for i := range tput {
		tput[i] = 0.5 + 8*r.Float64()
	}
	w := qoe.DefaultWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Play(spec, abr.MPC{}, sim.NewNoisyOracle(tput, 0, 1), tput, w)
		if res.Chunks == 0 {
			b.Fatal("no playback")
		}
	}
}

// BenchmarkClusterAggregate measures one Agg(M, s) lookup on a 6000-session
// index.
func BenchmarkClusterAggregate(b *testing.B) {
	d, _ := tracegen.Generate(tracegen.DefaultConfig())
	c := cluster.New(cluster.DefaultConfig(), d)
	rule := cluster.NewFeatureSet([]string{"ISP", "City"}, cluster.TimeWindow{Kind: cluster.WindowAll})
	s := d.Sessions[d.Len()-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if agg := c.Aggregate(rule, s); len(agg) == 0 {
			b.Fatal("empty aggregation")
		}
	}
}

// BenchmarkEnginePredictionThroughput measures online predictions/second on
// a trained engine (the paper's server handles ~500/s; §5.3).
func BenchmarkEnginePredictionThroughput(b *testing.B) {
	ctx := benchContext()
	eng := ctx.Engine()
	sessions := ctx.TestSessions(64)
	preds := make([]interface {
		Predict() float64
		Observe(float64)
	}, len(sessions))
	for i, s := range sessions {
		preds[i] = eng.NewSessionPredictor(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := preds[i%len(preds)]
		_ = p.Predict()
		p.Observe(2.5)
	}
}
