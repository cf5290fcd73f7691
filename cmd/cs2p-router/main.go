// Command cs2p-router fronts a cluster of cs2p-server replicas (the
// fault-tolerant serving tier of DESIGN.md §13). It consistent-hash-routes
// sessions across the replicas — sticky, because HMM filter state is
// per-session — probes each replica's /v1/healthz to drive a
// healthy/suspect/down/recovering/draining state machine, and when a
// session's home replica dies it recreates the session on the ring's next
// replica from the exact filter state that came back with its last
// acknowledged observation — bit-identical predictions, however long the
// session.
//
// Membership is dynamic: POST /v1/admin/replicas adds, removes, drains, or
// undrains a member at runtime (GET lists the set). A drain proactively
// moves each resident session to a ring successor the same way.
//
// The router serves the exact same HTTP surface as a single replica (JSON
// v1 and binary v2), so players point at it unchanged; whichever encoding a
// player speaks, the router→replica hop carries per-chunk ops as binary
// /v2/batch frames:
//
//	cs2p-router -replicas http://10.0.0.1:8642,http://10.0.0.2:8642,http://10.0.0.3:8642 -addr :8640
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cs2p/internal/health"
	"cs2p/internal/obs"
	"cs2p/internal/router"
)

func main() {
	var (
		replicas      = flag.String("replicas", "", "comma-separated cs2p-server base URLs (required)")
		addr          = flag.String("addr", ":8640", "listen address")
		vnodes        = flag.Int("vnodes", router.DefaultVNodes, "virtual nodes per replica on the hash ring")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health probe cadence")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe deadline")
		suspectAfter  = flag.Int("suspect-after", 0, "consecutive failures before a replica stops getting new sessions (0 = default)")
		downAfter     = flag.Int("down-after", 0, "consecutive failures before a replica is marked down (0 = default)")
		recoverAfter  = flag.Int("recover-after", 0, "consecutive successes before a recovering replica is healthy again (0 = default)")
		grace         = flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		debugAddr     = flag.String("debug-addr", "", "serve /debug/pprof, /metrics and /healthz on this private address (empty disables)")
	)
	flag.Parse()
	if *replicas == "" {
		fatalf("-replicas is required")
	}
	// Each URL is validated and canonicalized up front: a typo'd scheme or a
	// duplicate entry would otherwise surface as a silently lopsided ring.
	names, err := router.ParseReplicaList(*replicas)
	if err != nil {
		fatalf("-replicas: %v", err)
	}

	logger := log.New(os.Stderr, "cs2p-router: ", log.LstdFlags)
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	rt, rerr := router.New(router.Config{
		Replicas:      names,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Thresholds: health.Thresholds{
			SuspectAfter: *suspectAfter,
			DownAfter:    *downAfter,
			RecoverAfter: *recoverAfter,
		},
		Metrics: reg,
		Logf:    logger.Printf,
	})
	if rerr != nil {
		fatalf("%v", rerr)
	}
	logger.Printf("routing %d replicas: %s", len(rt.Replicas()), strings.Join(rt.Replicas(), ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Prime the health/version view before taking traffic, then keep
	// probing in the background.
	rt.ProbeAll(ctx)
	go rt.RunHealthChecker(ctx)

	if *debugAddr != "" {
		if _, err := obs.ServeDebug(ctx, *debugAddr, reg, logger.Printf); err != nil {
			logger.Printf("debug server: %v", err)
		}
	}

	if err := rt.Run(ctx, *addr, *grace); err != nil {
		fatalf("%v", err)
	}
	logger.Printf("shutdown complete")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cs2p-router: "+format+"\n", args...)
	os.Exit(1)
}
