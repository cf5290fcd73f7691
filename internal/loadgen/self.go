package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/router"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

// SelfOptions shapes an in-process target: a small tracegen-trained model
// served by one real cs2p-server stack (Replicas == 1) or by N replica
// stacks behind the consistent-hash router (Replicas > 1). Self targets
// exist so `make bench-load` and CI can measure the real serving path with
// zero external orchestration — the same reason bench-serve runs in-process.
type SelfOptions struct {
	// Replicas is the serving-tier width (1 = direct server, >1 = that many
	// replicas fronted by the router). 0 means 1.
	Replicas int
	// TrainSessions sizes the tracegen training trace (0 = 300, enough for
	// real clusters at SmallConfig shape without minutes of training).
	TrainSessions int
	// Seed drives the synthetic population.
	Seed int64
	// Shards pins the replica session-store shard count (0 = GOMAXPROCS).
	Shards int
	// MaxLogs bounds each replica's QoE-log ring (0 = engine default).
	MaxLogs int
}

// SelfTarget is a running in-process serving tier.
type SelfTarget struct {
	// URL is the front door (replica or router) the harness drives.
	URL string
	// MetricsURL serves the first replica's obs registry (every replica of
	// a self cluster shares one process, so one registry view covers the
	// soak checks).
	MetricsURL string
	// Service is the first replica's engine service — the direct handle the
	// leak tests use to cross-check gauge math against Logs().
	Service *engine.Service
	// Registry is the serving-side metrics registry behind MetricsURL.
	Registry *obs.Registry

	servers []*http.Server
	lns     []net.Listener
}

// Close tears the tier down (front first, then replicas).
func (t *SelfTarget) Close() {
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Close()
	}
}

// trainConfig is the fast-but-real training shape self targets use: small
// state count and few EM iterations, the same compromise the golden cluster
// test makes.
func trainConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Cluster.MinGroupSize = 10
	cfg.HMM.NStates = 3
	cfg.HMM.MaxIters = 8
	return cfg
}

// workloadConfig derives the tracegen population for a given seed. Sessions
// are capped short (MaxEpochs) so load-run sessions drain in bounded time.
func workloadConfig(seed int64, sessions int) tracegen.Config {
	cfg := tracegen.SmallConfig()
	cfg.Seed = seed
	cfg.Sessions = sessions
	cfg.MeanEpochs = 8
	cfg.MaxEpochs = 24
	return cfg
}

// SyntheticWorkload draws n replayable sessions from the tracegen
// population — the "realistic chunk cadence" source: session lengths follow
// the paper's lognormal, per-epoch throughput follows the cluster HMMs, and
// features route to real clusters on a model trained from the same
// population shape.
func SyntheticWorkload(seed int64, n int) []*trace.Session {
	d, _ := tracegen.Generate(workloadConfig(seed, n))
	return d.Sessions
}

// serve starts an http.Server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", fmt.Errorf("loadgen: listening: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln, "http://" + ln.Addr().String(), nil
}

// StartSelf trains one small model and boots the requested serving tier
// in-process. The first replica's registry carries the engine gauges plus
// the runtime gauges, and is mounted at MetricsURL — the exact contract a
// production soak scrapes off -debug-addr.
func StartSelf(opts SelfOptions) (*SelfTarget, error) {
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	sessions := opts.TrainSessions
	if sessions <= 0 {
		sessions = 300
	}
	cfg := trainConfig()
	d, _ := tracegen.Generate(workloadConfig(opts.Seed, sessions))
	eng, err := core.Train(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: training self-target model: %w", err)
	}

	t := &SelfTarget{}
	ok := false
	defer func() {
		if !ok {
			t.Close()
		}
	}()

	var urls []string
	for i := 0; i < replicas; i++ {
		svc := engine.NewServiceWithOptions(eng, cfg, video.Default(),
			engine.ServiceOptions{Shards: opts.Shards, MaxLogs: opts.MaxLogs})
		srv := httpapi.NewServer(svc, (*core.Engine).Store)
		srv.SetLogf(func(string, ...any) {})
		mux := http.NewServeMux()
		if i == 0 {
			reg := obs.NewRegistry()
			svc.SetMetrics(reg)
			srv.SetMetrics(reg)
			obs.RegisterRuntimeMetrics(reg)
			mux.Handle("/metrics", reg.Handler())
			t.Service = svc
			t.Registry = reg
		}
		mux.Handle("/", srv.Handler())
		hs, ln, url, err := serve(mux)
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, hs)
		t.lns = append(t.lns, ln)
		urls = append(urls, url)
		if i == 0 {
			t.MetricsURL = url + "/metrics"
		}
	}

	if replicas == 1 {
		t.URL = urls[0]
		ok = true
		return t, nil
	}

	rt, err := router.New(router.Config{Replicas: urls, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, fmt.Errorf("loadgen: building router: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	rt.ProbeAll(ctx)
	cancel()
	hs, ln, url, err := serve(rt.Handler())
	if err != nil {
		return nil, err
	}
	t.servers = append(t.servers, hs)
	t.lns = append(t.lns, ln)
	t.URL = url
	ok = true
	return t, nil
}
