package httpapi

import (
	"net/http"
	"runtime/debug"
	"time"
)

// recoverMiddleware converts handler panics into 500 responses instead of
// letting net/http kill the connection (which a client sees as an opaque
// EOF). The panic and stack are logged and counted so operators and the
// chaos harness can assert "no prediction call panicked"; a stream's frame
// loop, which runs past every middleware, recovers the same way.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					// Deliberate abort (client went away); not a bug.
					panic(v)
				}
				s.panicked(r.Method+" "+r.URL.Path, v)
				// Best effort: if the handler already wrote a header this
				// is a no-op on the status line.
				WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: "internal server error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// panicked counts and logs a recovered panic (what names what was served).
func (s *Server) panicked(what string, v any) {
	s.panics.Add(1)
	s.sm.panics.Inc()
	s.logf("panic serving %s: %v\n%s", what, v, debug.Stack())
}

// boundBodyRead arms the connection's read deadline at RequestTimeout from
// now for a request with a body, or (arm false, the body in) lifts it so that
// net/http's background read cannot cancel a slow upstream call or a long
// drain; the server resets it between requests either way. This is
// http.ResponseController.SetReadDeadline minus its error, a fmt.Errorf, for
// writers with no connection (lanes, MsgCalls, tests, the benchmark's loops).
func (s *Server) boundBodyRead(w http.ResponseWriter, arm bool) {
	for s.cfg.RequestTimeout > 0 {
		switch v := w.(type) {
		case interface{ SetReadDeadline(time.Time) error }:
			var deadline time.Time
			if arm {
				deadline = time.Now().Add(s.cfg.RequestTimeout)
			}
			_ = v.SetReadDeadline(deadline) // fails only on a connection already closed
			return
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return
		}
	}
}
