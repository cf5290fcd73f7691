// The /v2 routes: the binary wire protocol's server side, the fast lane for
// the per-chunk observe/predict round trip and its batched CDN-edge variant.
// Session lifecycle (start, end-of-session log) stays on JSON v1 — it runs
// once per playback, not once per chunk.
//
// Like every route, /v2 is served from pooled scratch under the read deadline
// Server.Handler arms, inside recovery and metrics. Its body cap is tighter
// than readBody's: the frame header's declared length is bounds-checked by
// wire.PeekHeader before any payload is buffered. These handlers are codecs
// only; the op pipeline they feed is in ops.go. GET /v2/stream, the second
// carrier of /v2/batch frames, is in stream.go.
package httpapi

import (
	"errors"
	"io"
	"net/http"

	"cs2p/internal/wire"
)

// wireLimits is wire.DefaultLimits with the server's body and batch caps, so
// one knob set governs both protocols.
func (s *Server) wireLimits() wire.Limits {
	lim := wire.DefaultLimits()
	lim.MaxFrameBytes = int(s.cfg.MaxBodyBytes)
	lim.MaxBatchOps = s.cfg.MaxBatchOps
	return lim
}

// readWireFrame is the one frame reader — of a request body, a stream, and a
// stream's reply: it reads exactly one frame from r into *buf, header first,
// then — only after PeekHeader accepts the magic, version, type, and declared
// length — the payload. A hostile Content-Length or a garbage stream
// therefore cannot make either end buffer more than MaxFrameBytes.
// ErrTruncated means r ended or failed mid-frame.
func readWireFrame(r io.Reader, buf *[]byte, lim wire.Limits) (wire.Frame, error) {
	if cap(*buf) < wire.HeaderLen {
		*buf = make([]byte, 0, 512)
	}
	b := (*buf)[:wire.HeaderLen]
	if _, err := io.ReadFull(r, b); err != nil {
		return wire.Frame{}, wire.ErrTruncated
	}
	_, plen, err := wire.PeekHeader(b, lim)
	if err != nil {
		return wire.Frame{}, err
	}
	total := wire.HeaderLen + plen
	if cap(*buf) < total {
		nb := make([]byte, total)
		copy(nb, b)
		*buf = nb
	}
	*buf = (*buf)[:total]
	if _, err := io.ReadFull(r, (*buf)[wire.HeaderLen:]); err != nil {
		return wire.Frame{}, wire.ErrTruncated
	}
	return wire.DecodeFrame(*buf, lim)
}

// wireFrameHandler serves one decoded /v2 request frame.
type wireFrameHandler func(w http.ResponseWriter, sc *opScratch, f wire.Frame, lim wire.Limits)

// wireRoute is a /v2 route's handler: it checks the content type, reads the
// one request frame into pooled scratch, rejects trailing bytes (the body is
// the frame's outer delimiter), lifts the read deadline, and hands the frame
// to serve.
func (s *Server) wireRoute(serve wireFrameHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := opScratchPool.Get().(*opScratch)
		defer opScratchPool.Put(sc)
		if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
			s.writeWireError(w, sc, http.StatusUnsupportedMediaType, "content type must be "+wire.ContentType)
			return
		}
		lim := s.wireLimits()
		frame, err := readWireFrame(r.Body, &sc.body, lim)
		if err == nil {
			var probe [1]byte
			if n, _ := r.Body.Read(probe[:]); n > 0 {
				err = wire.ErrTrailingData
			}
		}
		if err != nil {
			s.writeWire(w, wireDecodeError(sc, err), sc.out)
			return
		}
		s.boundBodyRead(w, false)
		serve(w, sc, frame, lim)
	}
}

// handleWireRefusal is the /v2/ catch-all: any other method on a /v2 path,
// and any POST to a path that is not a /v2 route, answered as a MsgError
// frame like every other /v2 failure.
func (s *Server) handleWireRefusal(w http.ResponseWriter, r *http.Request) {
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	switch {
	case r.URL.Path == streamPath:
		s.writeWireError(w, sc, http.StatusMethodNotAllowed, "GET required")
	case r.Method != http.MethodPost:
		s.writeWireError(w, sc, http.StatusMethodNotAllowed, "POST required")
	default:
		s.writeWireError(w, sc, http.StatusNotFound, "unknown /v2 route")
	}
}

// wireOp serves /v2/observe (observe true) and /v2/predict: one MsgOp in, one
// MsgPrediction (or MsgError) out. The two routes are the stateful and
// stateless halves of the v1 predict handler, split so the observe flag in
// the frame can be cross-checked against the route the client chose.
func (s *Server) wireOp(observe bool) wireFrameHandler {
	return func(w http.ResponseWriter, sc *opScratch, f wire.Frame, lim wire.Limits) {
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
}

// handleWireBatch serves POST /v2/batch through serveBatchFrame.
func (s *Server) handleWireBatch(w http.ResponseWriter, sc *opScratch, f wire.Frame, lim wire.Limits) {
	s.writeWire(w, s.serveBatchFrame(sc, f, lim), sc.out)
}

// serveBatchFrame is the one batch server of both carriers, POST /v2/batch
// and /v2/stream: MsgBatch in; MsgBatchResult (MsgBatchStateResult only when
// some op asked for state, which players never do) or a MsgError into sc.out;
// the status out. A batch answers 200 even when ops fail — partial failure is
// the normal case at a CDN edge (sessions end and get evicted mid-batch), and
// the per-op codes carry it without failing the round trip.
func (s *Server) serveBatchFrame(sc *opScratch, f wire.Frame, lim wire.Limits) int {
	if f.Type != wire.MsgBatch {
		return wireError(sc, http.StatusBadRequest, "route expects a batch frame")
	}
	var err error
	if sc.ops, err = wire.DecodeBatch(f.Payload, lim, sc.ops[:0]); err != nil {
		return wireDecodeError(sc, err)
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
	return http.StatusOK
}

func (s *Server) writeWire(w http.ResponseWriter, status int, frame []byte) {
	w.Header()["Content-Type"] = wireContentType
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// writeWireError answers with a MsgError frame carrying the HTTP status, so
// a client that only parses the body still learns the failure class.
func (s *Server) writeWireError(w http.ResponseWriter, sc *opScratch, status int, msg string) {
	s.writeWire(w, wireError(sc, status, msg), sc.out)
}

// wireError puts a MsgError frame carrying status into sc.out and returns
// the status.
func wireError(sc *opScratch, status int, msg string) int {
	sc.out = wire.AppendError(sc.out[:0], status, msg)
	return status
}

// wireDecodeError is wireError for a frame that would not decode: 413 when a
// declared length exceeds a limit, else 400.
func wireDecodeError(sc *opScratch, err error) int {
	status := http.StatusBadRequest
	if errors.Is(err, wire.ErrOversize) {
		status = http.StatusRequestEntityTooLarge
	}
	return wireError(sc, status, err.Error())
}
