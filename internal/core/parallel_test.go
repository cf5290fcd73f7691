package core

import (
	"context"
	"runtime"
	"testing"

	"cs2p/internal/hmm"
	"cs2p/internal/tracegen"
)

// modelsIdentical compares two HMMs for bit-identical parameters. The
// determinism contract is exact equality, not tolerance: every cluster
// trains from its own seeded RNG, so worker interleaving must not change a
// single bit of the result.
func modelsIdentical(t *testing.T, label string, a, b *hmm.Model) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: state counts differ: %d vs %d", label, a.N(), b.N())
	}
	for i := range a.Pi {
		if a.Pi[i] != b.Pi[i] {
			t.Fatalf("%s: Pi[%d] differs: %v vs %v", label, i, a.Pi[i], b.Pi[i])
		}
	}
	for i, v := range a.Trans.Data {
		if v != b.Trans.Data[i] {
			t.Fatalf("%s: Trans.Data[%d] differs: %v vs %v", label, i, v, b.Trans.Data[i])
		}
	}
	for i := range a.Emit {
		if a.Emit[i] != b.Emit[i] {
			t.Fatalf("%s: Emit[%d] differs: %+v vs %+v", label, i, a.Emit[i], b.Emit[i])
		}
	}
}

func enginesIdentical(t *testing.T, seq, par *Engine) {
	t.Helper()
	sms, pms := seq.Store(), par.Store()
	if len(sms.Models) != len(pms.Models) {
		t.Fatalf("cluster model counts differ: %d vs %d", len(sms.Models), len(pms.Models))
	}
	for id, sm := range sms.Models {
		pm, ok := pms.Models[id]
		if !ok {
			t.Fatalf("parallel engine missing cluster %q", id)
		}
		modelsIdentical(t, "cluster "+id, sm.Model, pm.Model)
		if sm.InitialMedian != pm.InitialMedian {
			t.Fatalf("cluster %q medians differ: %v vs %v", id, sm.InitialMedian, pm.InitialMedian)
		}
	}
	modelsIdentical(t, "global", sms.Global.Model, pms.Global.Model)
	if sms.Global.InitialMedian != pms.Global.InitialMedian {
		t.Fatalf("global medians differ: %v vs %v", sms.Global.InitialMedian, pms.Global.InitialMedian)
	}
	if len(seq.warnings) != len(par.warnings) {
		t.Fatalf("warning counts differ: %v vs %v", seq.warnings, par.warnings)
	}
	for i := range seq.warnings {
		if seq.warnings[i] != par.warnings[i] {
			t.Fatalf("warning %d differs: %q vs %q", i, seq.warnings[i], par.warnings[i])
		}
	}
}

// TestTrainParallelMatchesSequential is the determinism invariant of the
// parallel training pipeline: Parallelism=1 (the historical sequential loop)
// and a many-worker pool must produce bit-identical engines.
func TestTrainParallelMatchesSequential(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 600
	d, _ := tracegen.Generate(cfg)

	ecfg := DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	ecfg.HMM.NStates = 3
	ecfg.HMM.MaxIters = 15
	ecfg.MinClusterSessions = 8

	seqCfg := ecfg
	seqCfg.Parallelism = 1
	parCfg := ecfg
	parCfg.Parallelism = runtime.NumCPU()
	if parCfg.Parallelism < 4 {
		parCfg.Parallelism = 4 // force a real fan-out even on small CI boxes
	}

	seq, err := Train(d, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Train(d, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Clusters() == 0 {
		t.Fatal("degenerate fixture: no cluster models trained")
	}
	enginesIdentical(t, seq, par)
}

// TestTrainParallelMatchesSequentialSelectStates covers the cross-validated
// state-selection path, whose (candidate, fold) runs also fan out.
func TestTrainParallelMatchesSequentialSelectStates(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 300
	d, _ := tracegen.Generate(cfg)

	ecfg := DefaultConfig()
	ecfg.Cluster.MinGroupSize = 8
	ecfg.SelectStates = true
	ecfg.StateCandidates = []int{2, 3}
	ecfg.CVFolds = 2
	ecfg.HMM.MaxIters = 10
	ecfg.MinClusterSessions = 8
	ecfg.MaxClusterSessions = 30

	seqCfg := ecfg
	seqCfg.Parallelism = 1
	seqCfg.HMM.Parallelism = 1
	parCfg := ecfg
	parCfg.Parallelism = 4

	seq, err := Train(d, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Train(d, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	enginesIdentical(t, seq, par)
}

func TestTrainContextCancelled(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 300
	d, _ := tracegen.Generate(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainContext(ctx, d, DefaultConfig()); err == nil {
		t.Fatal("cancelled context should abort training")
	}
}

// TestTrainWarningsLogged checks that a failing state selection is surfaced
// through both Logf and Warnings instead of being silently swallowed.
func TestTrainWarningsLogged(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 300
	d, _ := tracegen.Generate(cfg)
	ecfg := DefaultConfig()
	ecfg.Cluster.MinGroupSize = 8
	ecfg.MinClusterSessions = 8
	ecfg.SelectStates = true
	ecfg.StateCandidates = nil // forces SelectStateCount to fail per cluster
	ecfg.CVFolds = 2
	ecfg.HMM.MaxIters = 5
	var logged []string
	ecfg.Logf = func(format string, args ...any) {
		logged = append(logged, format)
	}
	eng, err := Train(d, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Clusters() == 0 {
		t.Fatal("fallback state count should still train cluster models")
	}
	if len(eng.Warnings()) == 0 {
		t.Error("state-selection failures should be collected on Warnings")
	}
	if len(logged) == 0 {
		t.Error("state-selection failures should be reported through Logf")
	}
}
