package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux builds the operator-facing debug mux served on -debug-addr:
// net/http/pprof under /debug/pprof/ and the metrics scrape under /metrics.
// It is a separate mux (and in cs2p-server a separate listener) so profiling
// and scraping never share a port — or a request-timeout middleware, which
// would kill long profile captures — with player traffic.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// ServeDebug serves DebugMux(reg) on addr in the background — the
// -debug-addr listener of cs2p-server and cs2p-router — and shuts it down,
// with a 2 s budget, when ctx is cancelled. It returns the bound address
// once the listener is up, or the bind error; a later serve error goes to
// logf.
func ServeDebug(ctx context.Context, addr string, reg *Registry, logf func(string, ...any)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugMux(reg)}
	logf("debug server (pprof, metrics) listening on %s", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("debug server: %v", err)
		}
	}()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	return ln.Addr(), nil
}
