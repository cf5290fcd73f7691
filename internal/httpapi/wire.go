// The /v2 routes: the binary wire protocol's server side, the fast lane for
// the per-chunk observe/predict round trip and its batched CDN-edge variant.
// Session lifecycle (start, end-of-session log) stays on JSON v1 — it runs
// once per playback, not once per chunk.
//
// Like the three JSON player routes, /v2 is dispatched ahead of
// http.TimeoutHandler and MaxBytesReader (Server.Handler) and served from
// pooled scratch under the dispatcher's read deadline; recovery and metrics
// still wrap it. Its body cap is tighter than theirs: the frame header's
// declared length is bounds-checked by wire.PeekHeader before any payload is
// buffered. These handlers are codecs only; the op pipeline they feed is in
// ops.go.
package httpapi

import (
	"errors"
	"io"
	"net/http"

	"cs2p/internal/wire"
)

// wireLimits derives the decoder bounds from the server's hardening config,
// so one knob set governs both protocols.
func (s *Server) wireLimits() wire.Limits {
	return wire.Limits{
		MaxFrameBytes:   int(s.cfg.MaxBodyBytes),
		MaxSessionIDLen: s.cfg.MaxSessionIDLen,
		MaxBatchOps:     s.cfg.MaxBatchOps,
	}
}

// readWireFrame reads exactly one frame from the request body into sc.body:
// header first, then — only after PeekHeader accepts the magic, version,
// type, and declared length — the payload, then a probe read that rejects
// trailing bytes. A hostile Content-Length or a garbage body therefore
// cannot make the server buffer more than MaxFrameBytes.
func readWireFrame(r *http.Request, sc *opScratch, lim wire.Limits) (wire.Frame, error) {
	if cap(sc.body) < wire.HeaderLen {
		sc.body = make([]byte, 0, 512)
	}
	b := sc.body[:wire.HeaderLen]
	if _, err := io.ReadFull(r.Body, b); err != nil {
		return wire.Frame{}, wire.ErrTruncated
	}
	_, plen, err := wire.PeekHeader(b, lim)
	if err != nil {
		return wire.Frame{}, err
	}
	total := wire.HeaderLen + plen
	if cap(sc.body) < total {
		nb := make([]byte, total)
		copy(nb, b)
		sc.body = nb
	}
	b = sc.body[:total]
	if _, err := io.ReadFull(r.Body, b[wire.HeaderLen:]); err != nil {
		return wire.Frame{}, wire.ErrTruncated
	}
	var probe [1]byte
	if n, _ := r.Body.Read(probe[:]); n > 0 {
		return wire.Frame{}, wire.ErrTrailingData
	}
	return wire.DecodeFrame(b, lim)
}

// handleWire is the /v2 dispatcher (wired in ahead of the JSON middleware
// stack by Handler).
func (s *Server) handleWire(w http.ResponseWriter, r *http.Request) {
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	if r.Method != http.MethodPost {
		s.writeWireError(w, sc, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
		s.writeWireError(w, sc, http.StatusUnsupportedMediaType, "content type must be "+wire.ContentType)
		return
	}
	lim := s.wireLimits()
	frame, err := readWireFrame(r, sc, lim)
	if err != nil {
		s.writeWireDecodeError(w, sc, err)
		return
	}
	s.boundBodyRead(w, false)
	switch r.URL.Path {
	case "/v2/observe":
		s.handleWireOp(w, sc, frame, lim, true)
	case "/v2/predict":
		s.handleWireOp(w, sc, frame, lim, false)
	case "/v2/batch":
		s.handleWireBatch(w, sc, frame, lim)
	default:
		s.writeWireError(w, sc, http.StatusNotFound, "unknown /v2 route")
	}
}

// handleWireOp serves /v2/observe and /v2/predict: one MsgOp in, one
// MsgPrediction (or MsgError) out. The two routes are the stateful and
// stateless halves of the v1 predict handler, split so the observe flag in
// the frame can be cross-checked against the route the client chose.
func (s *Server) handleWireOp(w http.ResponseWriter, sc *opScratch, f wire.Frame, lim wire.Limits, observe bool) {
	if f.Type != wire.MsgOp {
		s.writeWireError(w, sc, http.StatusBadRequest, "route expects a single-op frame")
		return
	}
	op, err := wire.DecodeOp(f.Payload, lim)
	if err != nil {
		s.writeWireError(w, sc, http.StatusBadRequest, err.Error())
		return
	}
	if op.HasObserve != observe {
		s.writeWireError(w, sc, http.StatusBadRequest, "op observe flag does not match route")
		return
	}
	pred, status, msg := s.serveOne(sc, op)
	if status != http.StatusOK {
		s.writeWireError(w, sc, status, msg)
		return
	}
	sc.out = wire.AppendPrediction(sc.out[:0], pred)
	s.writeWire(w, http.StatusOK, sc.out)
}

// handleWireBatch serves /v2/batch: MsgBatch in, MsgBatchResult out
// (MsgBatchStateResult only when some op asked for state, which players
// never do). The response is 200 even when individual ops fail — partial
// failure is the normal case at a CDN edge (sessions end and get evicted
// mid-batch), and the per-op codes carry it without failing the round trip.
func (s *Server) handleWireBatch(w http.ResponseWriter, sc *opScratch, f wire.Frame, lim wire.Limits) {
	if f.Type != wire.MsgBatch {
		s.writeWireError(w, sc, http.StatusBadRequest, "route expects a batch frame")
		return
	}
	var err error
	sc.ops, err = wire.DecodeBatch(f.Payload, lim, sc.ops[:0])
	if err != nil {
		s.writeWireDecodeError(w, sc, err)
		return
	}
	s.sm.batchOps.Observe(float64(len(sc.ops))) // inert (a nil handle) without a registry
	wantState := false
	for i := range sc.ops {
		wantState = wantState || sc.ops[i].WantState
	}
	if gen := s.serveOps(sc); wantState {
		sc.out = wire.AppendBatchStateResult(sc.out[:0], gen, sc.res)
	} else {
		sc.out = wire.AppendBatchResult(sc.out[:0], gen, sc.res)
	}
	s.writeWire(w, http.StatusOK, sc.out)
}

func (s *Server) writeWire(w http.ResponseWriter, status int, frame []byte) {
	w.Header()["Content-Type"] = wireContentType
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// writeWireError answers with a MsgError frame carrying the HTTP status, so
// a client that only parses the body still learns the failure class.
func (s *Server) writeWireError(w http.ResponseWriter, sc *opScratch, status int, msg string) {
	sc.out = wire.AppendError(sc.out[:0], status, msg)
	s.writeWire(w, status, sc.out)
}

// writeWireDecodeError answers a frame that would not decode: 413 when a
// declared length exceeds a limit, else 400.
func (s *Server) writeWireDecodeError(w http.ResponseWriter, sc *opScratch, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, wire.ErrOversize) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeWireError(w, sc, status, err.Error())
}
