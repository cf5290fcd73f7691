// Command cs2p-train trains CS2P models from a trace file (the offline
// stage of the paper's Figure 1) and either writes a bare model store or
// publishes a versioned artifact into a registry directory that cs2p-server
// boots from and watches.
//
// Usage:
//
//	cs2p-train -trace trace.csv -o models.json
//	cs2p-train -trace trace.csv -registry-dir ./models -holdout-frac 0.2 -keep 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/obs"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
)

func main() {
	var (
		tracePath   = flag.String("trace", "", "input trace (CSV from tracegen; required)")
		out         = flag.String("o", "", "output model store file (bare store, no manifest)")
		registryDir = flag.String("registry-dir", "", "publish a versioned artifact into this registry directory")
		holdoutFrac = flag.Float64("holdout-frac", 0.2, "fraction of the trace (latest sessions) held out for validation metrics when publishing")
		keep        = flag.Int("keep", 0, "prune the registry to the newest N versions after publishing (0 = keep all)")
		states      = flag.Int("states", 6, "HMM state count (paper: 6 via cross-validation)")
		minGroup    = flag.Int("min-group", 30, "minimum sessions per aggregation (paper threshold)")
		selectN     = flag.Bool("select-states", false, "cross-validate the state count per cluster (slow)")
		par         = flag.Int("parallelism", 0, "training workers (0 = one per CPU, 1 = sequential)")
		metricsOut  = flag.String("metrics-out", "", "dump training metrics (Prometheus text) to this file, or - for stderr")
	)
	flag.Parse()
	if *tracePath == "" {
		fatalf("-trace is required")
	}
	if *out == "" && *registryDir == "" {
		*out = "models.json" // historical default
	}
	if *holdoutFrac < 0 || *holdoutFrac >= 1 {
		fatalf("-holdout-frac must be in [0, 1)")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatalf("opening trace: %v", err)
	}
	d, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		fatalf("reading trace: %v", err)
	}
	if err := d.Validate(); err != nil {
		fatalf("invalid trace: %v", err)
	}

	// When publishing, the newest holdout-frac of sessions (by start time)
	// is withheld from training and replayed for the manifest's validation
	// metrics — the evidence the server-side promotion gate weighs.
	train, holdout := d, (*trace.Dataset)(nil)
	if *registryDir != "" && *holdoutFrac > 0 {
		train, holdout = splitHoldout(d, *holdoutFrac)
		if train.Len() == 0 {
			fatalf("holdout fraction %.2f leaves no training sessions", *holdoutFrac)
		}
	}

	cfg := core.DefaultConfig()
	cfg.HMM.NStates = *states
	cfg.Cluster.MinGroupSize = *minGroup
	cfg.SelectStates = *selectN
	cfg.Parallelism = *par
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cs2p-train: "+format+"\n", args...)
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	start := time.Now()
	eng, err := core.Train(train, cfg)
	if err != nil {
		fatalf("training: %v", err)
	}
	store := eng.Store()
	maxSize, err := store.MaxModelSize()
	if err != nil {
		fatalf("sizing model store: %v", err)
	}
	fmt.Fprintf(os.Stderr,
		"cs2p-train: trained %d cluster models (+global) from %d sessions in %v; largest artifact %d bytes\n",
		eng.Clusters(), train.Len(), time.Since(start).Round(time.Millisecond), maxSize)

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatalf("creating %s: %v", *out, err)
		}
		if err := store.Save(of); err != nil {
			of.Close()
			fatalf("writing model store: %v", err)
		}
		if err := of.Close(); err != nil {
			fatalf("closing %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "cs2p-train: wrote model store to %s\n", *out)
	}

	if *registryDir != "" {
		meta := core.TrainingMeta{
			TrainedAtUnix: time.Now().Unix(),
			TraceSessions: train.Len(),
			TraceEpochs:   countEpochs(train),
			Clusters:      eng.Clusters(),
		}
		if holdout != nil && holdout.Len() > 0 {
			meta.Holdout = core.EvaluateHoldout(eng, holdout)
			fmt.Fprintf(os.Stderr,
				"cs2p-train: holdout (%d sessions, %d epochs): median APE %.4f, P90 APE %.4f\n",
				meta.Holdout.Sessions, meta.Holdout.Epochs, meta.Holdout.MedianAPE, meta.Holdout.P90APE)
		}
		r, err := registry.Open(*registryDir)
		if err != nil {
			fatalf("%v", err)
		}
		m, err := r.Publish(store, meta)
		if err != nil {
			fatalf("publishing: %v", err)
		}
		fmt.Fprintf(os.Stderr, "cs2p-train: published v%d to %s (sha256 %s...)\n",
			m.Version, *registryDir, m.SHA256[:12])
		if *keep > 0 {
			pruned, err := r.Prune(*keep)
			if err != nil {
				fatalf("pruning: %v", err)
			}
			if len(pruned) > 0 {
				fmt.Fprintf(os.Stderr, "cs2p-train: pruned %d old versions\n", len(pruned))
			}
		}
	}

	if reg != nil {
		if err := dumpMetrics(reg, *metricsOut); err != nil {
			fatalf("writing metrics: %v", err)
		}
	}
}

// splitHoldout cuts the dataset at the (1-frac) start-time quantile: train on
// the past, validate on the most recent sessions — the paper's train-day-one
// test-day-two convention, scaled to a fraction.
func splitHoldout(d *trace.Dataset, frac float64) (train, holdout *trace.Dataset) {
	starts := make([]int64, 0, d.Len())
	for _, s := range d.Sessions {
		starts = append(starts, s.StartUnix)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	idx := int(float64(len(starts)) * (1 - frac))
	if idx <= 0 || idx >= len(starts) {
		return d, nil
	}
	return d.SplitByTime(time.Unix(starts[idx], 0))
}

func countEpochs(d *trace.Dataset) int {
	n := 0
	for _, s := range d.Sessions {
		n += len(s.Throughput)
	}
	return n
}

// dumpMetrics writes the one-shot training metrics (fit times, EM iteration
// counts, CV scores) in Prometheus text format — greppable, and ingestible
// by any Prometheus tooling.
func dumpMetrics(reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.WritePrometheus(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cs2p-train: "+format+"\n", args...)
	os.Exit(1)
}
