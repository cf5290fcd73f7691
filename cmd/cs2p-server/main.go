// Command cs2p-server runs the CS2P Prediction Engine as an HTTP service
// (the server-side deployment of §6). It boots in one of two modes:
//
//   - artifact mode (-model-dir): load the latest published artifact from a
//     registry directory written by cs2p-train, serve it with NO raw trace on
//     the box, and watch the registry for new versions — each candidate must
//     pass the promotion gate before the atomic swap.
//   - trace mode (-trace): train in-process at startup (the original
//     single-binary deployment). The trace is read, trained on and dropped;
//     what serves is the same model store artifact mode loads.
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight calls.
//
// Usage:
//
//	cs2p-server -model-dir ./models -addr :8642
//	cs2p-server -trace trace.csv -addr :8642
//
// Endpoints: POST /v1/session/start, POST /v1/predict, POST /v1/log,
// GET /v1/model, GET /v1/admin/models, POST /v1/admin/rollback,
// POST /v1/admin/drain, GET/PUT/DELETE /v1/session/{id}/state (warm
// session handoff, DESIGN.md §13.3), GET /v1/healthz; with -ingest also
// POST /v1/ingest (DESIGN.md §15). The per-chunk op is also served over
// the binary protocol at POST /v2/observe, /v2/predict, /v2/batch
// (DESIGN.md §10.2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

func main() {
	defaults := httpapi.DefaultServerConfig()
	var (
		tracePath   = flag.String("trace", "", "training trace (CSV); trains in-process at startup")
		modelDir    = flag.String("model-dir", "", "boot from the latest artifact in this registry directory and watch it for new versions")
		modelPoll   = flag.Duration("model-poll", 10*time.Second, "registry poll interval in artifact mode")
		tolerance   = flag.Float64("promote-tolerance", 0.1, "promotion gate: reject a candidate whose holdout median APE exceeds the incumbent's by more than this fraction")
		addr        = flag.String("addr", ":8642", "listen address")
		states      = flag.Int("states", 6, "HMM state count")
		minGroup    = flag.Int("min-group", 30, "minimum sessions per aggregation")
		gcEvery     = flag.Duration("session-gc", 10*time.Minute, "drop sessions idle longer than this")
		par         = flag.Int("parallelism", 0, "training workers (0 = one per CPU, 1 = sequential)")
		grace       = flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		reqTimeout  = flag.Duration("request-timeout", defaults.RequestTimeout, "how long any request body may take to arrive")
		maxBody     = flag.Int64("max-body", defaults.MaxBodyBytes, "request body size cap in bytes")
		maxLogs     = flag.Int("max-logs", engine.DefaultMaxLogs, "session QoE logs retained (ring buffer)")
		shards      = flag.Int("shards", 0, "session-store shards, rounded up to a power of two (0 = scale with GOMAXPROCS)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof, /metrics and /healthz on this private address (empty disables)")
		traceReqs   = flag.Bool("trace-requests", false, "log a per-request stage-timing line with the request id")
		maxBatch    = flag.Int("max-batch-ops", defaults.MaxBatchOps, "maximum ops accepted in one /v2/batch frame")
		ingest      = flag.Bool("ingest", false, "enable the online-learning plane: POST /v1/ingest trace intake and drift detection (DESIGN.md §15)")
		intakeCap   = flag.Int("intake-capacity", 4096, "trace-intake ring capacity in sessions (with -ingest)")
		driftBand   = flag.Float64("drift-band", 0.5, "relative midstream-APE regression that counts as drift (with -ingest; 0.5 = +50%)")
		minRetrain  = flag.Int("min-retrain-sessions", 50, "buffered sessions an online retrain needs before it trains a candidate (with -ingest)")
		onlineEvery = flag.Duration("online-retrain", 0, "drift-check cadence of the background online-retrain controller (0 disables; requires -ingest)")
		drainWindow = flag.Duration("drain-on-shutdown", 0, "on the first SIGINT/SIGTERM, report draining on /v1/healthz for up to this long (letting a router hand sessions off warm) before shutting down; 0 shuts down immediately")
	)
	flag.Parse()
	if err := checkFlags(*tracePath, *modelDir, *ingest, *onlineEvery, *gcEvery); err != nil {
		fatalf("%v", err)
	}

	// One logger feeds training diagnostics, GC/reload events, and the
	// HTTP layer, so operational output is a single ordered stream.
	logger := log.New(os.Stderr, "cs2p-server: ", log.LstdFlags)
	logf := logger.Printf

	// One registry spans training, the engine, the HTTP layer, and the Go
	// runtime, so a single /metrics scrape shows the whole serving stack.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	cfg := core.DefaultConfig()
	cfg.HMM.NStates = *states
	cfg.Cluster.MinGroupSize = *minGroup
	cfg.Parallelism = *par
	cfg.Logf = logf
	cfg.Metrics = reg

	var (
		svc      *engine.Service
		modelReg *registry.Registry
	)
	if *modelDir != "" {
		var err error
		modelReg, err = registry.Open(*modelDir)
		if err != nil {
			fatalf("%v", err)
		}
		art, err := modelReg.Latest()
		if err != nil {
			fatalf("loading latest artifact from %s: %v", *modelDir, err)
		}
		svc, err = engine.NewServiceFromArtifact(art, cfg, video.Default(),
			engine.ServiceOptions{Shards: *shards, MaxLogs: *maxLogs})
		if err != nil {
			fatalf("booting from artifact v%d: %v", art.Manifest.Version, err)
		}
		logf("serving artifact v%d (trained %s, %d clusters)",
			art.Manifest.Version,
			time.Unix(art.Manifest.TrainedAtUnix, 0).UTC().Format(time.RFC3339),
			art.Manifest.Clusters)
	} else {
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
		logf("training on %d sessions...", d.Len())
		start := time.Now()
		eng, err := core.Train(d, cfg)
		if err != nil {
			fatalf("training: %v", err)
		}
		logf("trained %d cluster models in %v", eng.Clusters(), time.Since(start).Round(time.Millisecond))
		svc = engine.NewServiceWithOptions(eng, cfg, video.Default(),
			engine.ServiceOptions{Shards: *shards, MaxLogs: *maxLogs})
	}
	svc.SetLogf(logf)
	svc.SetMetrics(reg)
	svc.SetPromotionPolicy(&engine.PromotionPolicy{Tolerance: *tolerance})
	logf("session store sharded %d ways", svc.Shards())

	// Online-learning plane: trace intake + drift detection, and (with
	// -online-retrain) the background drift→retrain→promote controller.
	// EnableOnline must follow SetMetrics — the drift detector reads the
	// live midstream-APE histogram. In artifact mode candidates publish
	// through the registry, so the artifact trail stays authoritative.
	if *ingest {
		err := svc.EnableOnline(engine.OnlineOptions{
			IntakeCapacity:     *intakeCap,
			DriftBand:          *driftBand,
			MinRetrainSessions: *minRetrain,
			Interval:           *onlineEvery,
			Registry:           modelReg,
		})
		if err != nil {
			fatalf("enabling online learning: %v", err)
		}
		logf("online learning enabled (intake capacity %d, drift band %.0f%%)", *intakeCap, *driftBand*100)
	}

	// Shutdown plumbing. With -drain-on-shutdown the first signal flips the
	// service into draining (healthz answers "draining" with the remaining
	// session count, so a fronting router hands sessions off warm) and the
	// listener keeps serving for up to the drain window; the window elapsing,
	// the session count reaching zero, or a second signal then triggers the
	// normal graceful shutdown. Without the flag, the first signal shuts
	// down immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		if *drainWindow <= 0 {
			cancel()
			return
		}
		svc.SetDraining(true)
		logf("draining for up to %v (signal again to shut down now)", *drainWindow)
		deadline := time.NewTimer(*drainWindow)
		defer deadline.Stop()
		poll := time.NewTicker(250 * time.Millisecond)
		defer poll.Stop()
		for {
			select {
			case <-sigs:
				cancel()
				return
			case <-deadline.C:
				logf("drain window elapsed with %d sessions resident", svc.Health().Sessions)
				cancel()
				return
			case <-poll.C:
				if svc.Health().Sessions == 0 {
					logf("drained: no sessions resident")
					cancel()
					return
				}
			}
		}
	}()

	// Idle-session GC on a Ticker that shutdown stops (time.Tick leaks its
	// goroutine forever).
	go func() {
		t := time.NewTicker(*gcEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				svc.GC(*gcEvery)
			}
		}
	}()

	// Artifact mode: watch the registry and promote new versions through the
	// gate. A rejected or unreadable candidate leaves the incumbent serving —
	// the operator sees it in the log and the promotion counters.
	if modelReg != nil {
		after := svc.Snapshot().Version()
		events := modelReg.Watch(ctx, *modelPoll, after)
		go func() {
			for ev := range events {
				if ev.Err != nil {
					logf("model watch: %v", ev.Err)
					continue
				}
				v := ev.Artifact.Manifest.Version
				// The online-retrain path publishes its own candidates and
				// installs them synchronously; re-gating one here would
				// evaluate it against a stale holdout and spam the log.
				if v <= svc.Snapshot().Version() {
					continue
				}
				if _, err := svc.InstallArtifact(ev.Artifact); err != nil {
					logf("artifact v%d not promoted: %v", v, err)
					continue
				}
				logf("promoted artifact v%d", v)
			}
		}()
	}

	// Drift-triggered online retraining: the controller checks the live
	// midstream-APE window on its cadence and, when drift fires, drains the
	// intake ring into an incremental retrain whose candidate must pass the
	// same promotion gate as any other swap.
	if *ingest && *onlineEvery > 0 {
		go svc.RunOnlineLoop(ctx)
	}

	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(logf)
	srv.SetMetrics(reg)
	srv.SetTraceRequests(*traceReqs)
	if modelReg != nil {
		srv.SetAdmin(&engine.RegistryAdmin{Svc: svc, Reg: modelReg})
	}
	srv.SetConfig(httpapi.ServerConfig{MaxBodyBytes: *maxBody, RequestTimeout: *reqTimeout, MaxBatchOps: *maxBatch})

	// The debug listener carries pprof and is meant for a private interface;
	// it is separate from the public API port on purpose.
	if *debugAddr != "" {
		if _, err := obs.ServeDebug(ctx, *debugAddr, reg, logf); err != nil {
			logf("debug server: %v", err)
		}
	}

	if err := srv.Run(ctx, *addr, *grace); err != nil {
		fatalf("%v", err)
	}
	logf("shutdown complete")
}

// checkFlags rejects flag combinations the server cannot run with, before
// any model is loaded or trained.
func checkFlags(tracePath, modelDir string, ingest bool, onlineEvery, gcEvery time.Duration) error {
	switch {
	case tracePath == "" && modelDir == "":
		return errors.New("one of -trace or -model-dir is required")
	case tracePath != "" && modelDir != "":
		return errors.New("-trace and -model-dir are mutually exclusive")
	case onlineEvery > 0 && !ingest:
		return errors.New("-online-retrain requires -ingest (the controller drains the intake ring)")
	case gcEvery <= 0:
		return fmt.Errorf("-session-gc must be positive, got %v (it is both the GC cadence and the idle cutoff)", gcEvery)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cs2p-server: "+format+"\n", args...)
	os.Exit(1)
}
