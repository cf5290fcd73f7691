package router

import (
	"context"
	"net/http"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
)

// The router's HTTP surface is the standard httpapi server stack — the
// same validation, hardening middleware, JSON v1 routes, and binary v2
// routes a single replica serves — backed by the Router as its
// SessionService. A player cannot tell a router from a replica, which is
// the whole point: the cluster presents the surface of one process.

// srvOnce builds the embedded httpapi server on first use.
func (rt *Router) srvOnce() *httpapi.Server {
	rt.srvInit.Do(func() {
		srv := httpapi.NewServer(rt, nil)
		srv.SetLogf(rt.logf)
		if rt.cfg.Metrics != nil {
			srv.SetMetrics(rt.cfg.Metrics)
		}
		srv.Handle("GET /v1/model", http.HandlerFunc(rt.proxyModel))
		srv.Handle("POST /v1/admin/replicas", http.HandlerFunc(rt.handleAdminReplicas))
		srv.Handle("GET /v1/admin/replicas", http.HandlerFunc(rt.handleListReplicas))
		rt.srv = srv
	})
	return rt.srv
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.srvOnce().Handler() }

// Run serves the router until ctx is cancelled, then drains gracefully.
func (rt *Router) Run(ctx context.Context, addr string, grace time.Duration) error {
	return rt.srvOnce().Run(ctx, addr, grace)
}

// PanicCount reports handler panics absorbed by the recovery middleware —
// the cluster chaos harness asserts it stays zero.
func (rt *Router) PanicCount() int64 {
	if rt.srv == nil {
		return 0
	}
	return rt.srv.PanicCount()
}

// Health implements httpapi.HealthReporter for the router's own
// /v1/healthz: the tier is ready while at least one replica is not Down.
// ModelVersion is the single version the live replicas agree on, or 0 when
// they diverge or were never probed — so a frontend stacked on routers can
// apply the same skew rule one level up.
func (rt *Router) Health() engine.HealthStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	up := 0
	var version uint64
	var trainedAt int64
	converged := true
	for _, rep := range rt.mem.replicas {
		if rep.health.State() == StateDown {
			continue
		}
		up++
		if rep.version != 0 {
			if version == 0 {
				version = rep.version
			} else if version != rep.version {
				converged = false
			}
		}
		if rep.trainedAt > trainedAt {
			trainedAt = rep.trainedAt
		}
	}
	if !converged {
		version = 0
	}
	return engine.HealthStatus{
		Ready:         up > 0,
		ModelVersion:  version,
		Sessions:      len(rt.sessions),
		TrainedAtUnix: trainedAt,
	}
}

// proxyModel forwards GET /v1/model to the first live replica that answers,
// preserving the query, the conditional-request header, and the
// version-derived ETag — so decentralized clients fetch their cluster model
// through the router with the replica's 304 revalidation intact. A replica's
// refusal (4xx, 501) is relayed like its answer; a failure (transport, 5xx)
// counts against it and the next replica is tried. A player that gave up
// ends the walk, at no replica's expense.
func (rt *Router) proxyModel(w http.ResponseWriter, r *http.Request) {
	for _, name := range rt.orderSnapshot() {
		rep := rt.usable(name)
		if rep == nil {
			continue
		}
		var (
			status int
			h      http.Header
			reply  []byte
		)
		switch oc, _ := rt.call(r.Context(), rep, func(c *httpapi.Client) (err error) {
			status, h, reply, err = c.Get(r.Context(), r.URL.RequestURI(), r.Header.Get("If-None-Match"))
			return err
		}); oc {
		case callFailed:
			continue
		case callAbandoned:
			return
		}
		if ct := h.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if etag := h.Get("ETag"); etag != "" {
			w.Header().Set("ETag", etag)
		}
		w.WriteHeader(status)
		_, _ = w.Write(reply)
		return
	}
	httpapi.WriteJSON(w, http.StatusBadGateway, httpapi.ErrorBody{Error: ErrNoReplica.Error()})
}
