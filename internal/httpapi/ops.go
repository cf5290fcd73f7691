// The per-chunk op pipeline: the paper's one online op — report the last
// epoch's throughput, get the next prediction in-band (§6, Algorithm 1) —
// served once under three codecs. POST /v1/predict (JSON), /v2/observe and
// /v2/predict (binary single op) and /v2/batch each decode into pooled
// []wire.Op scratch and hand it to serveOps; everything after the decode —
// the range checks, the backend call, the result-code → HTTP-status mapping —
// exists exactly once, here.
package httpapi

import (
	"fmt"
	"math"
	"net/http"
	"sync"

	"cs2p/internal/wire"
)

// BatchService is the one per-chunk door between a codec and a backend: one
// call serves a whole batch of interleaved ops under a single pinned model
// snapshot, with byte-keyed session ids so decoded frames need no string
// conversions, and per-op result codes instead of errors. It returns the
// model generation the batch was served under. A backend must answer
// wire.OpInvalid, without side effects, for an op that is Malformed —
// serveOps relies on that to reject out-of-range ops in place.
// *engine.Service and *router.Router implement it.
type BatchService interface {
	ServeBatch(ops []wire.Op, res []wire.OpResult) uint64
}

// opScratch is one request's reusable working set.
type opScratch struct {
	body []byte          // the request body as read (op ids alias it)
	out  []byte          // response encode buffer
	ops  []wire.Op       // the decoded ops, handed to the backend
	res  []wire.OpResult // the backend's answers, index-aligned with ops
}

var opScratchPool = sync.Pool{New: func() any { return &opScratch{} }}

// badMbps is the one throughput range check, for the per-chunk op and for
// the series /v1/ingest and a session-state import carry: a value must be
// finite and in [0, MaxObservedMbps]. Written as a negated conjunction so
// NaN (for which every comparison is false) is rejected too.
func badMbps(v float64) bool { return !(v >= 0 && v <= MaxObservedMbps) }

// validOp is the pipeline's one op check: a NaN/Inf/negative observation
// would permanently corrupt the session's HMM posterior, an implausible one
// distorts it, and a huge horizon burns CPU in the k-step transition loop.
func validOp(op *wire.Op) bool {
	if op.Horizon < 0 || op.Horizon > MaxHorizon {
		return false
	}
	return !op.HasObserve || !badMbps(op.ObservedMbps)
}

// serveOps runs sc.ops through the range check and the backend, leaving the
// index-aligned results in sc.res, and returns the generation the set was
// served under. An op that fails validOp is replaced by a poisoned one (a
// NaN observation) rather than tracked in a side list: the backend answers
// OpInvalid for exactly that index with no session side effects.
func (s *Server) serveOps(sc *opScratch) uint64 {
	for i := range sc.ops {
		if !validOp(&sc.ops[i]) {
			sc.ops[i] = wire.Op{SessionID: sc.ops[i].SessionID, ObservedMbps: math.NaN(), HasObserve: true}
		}
	}
	if cap(sc.res) < len(sc.ops) {
		sc.res = make([]wire.OpResult, len(sc.ops))
	}
	sc.res = sc.res[:len(sc.ops)]
	return s.svc.ServeBatch(sc.ops, sc.res)
}

// serveOne serves a single-op request (JSON or binary) and returns the
// prediction with the HTTP status its result code maps to and, for
// failures, the message.
func (s *Server) serveOne(sc *opScratch, op wire.Op) (pred float64, status int, msg string) {
	sc.ops = append(sc.ops[:0], op)
	s.serveOps(sc)
	switch res := sc.res[0]; res.Code {
	case wire.OpOK:
		return res.PredictionMbps, http.StatusOK, ""
	case wire.OpUnknownSession:
		return 0, http.StatusNotFound, "unknown session"
	case wire.OpInvalid:
		return 0, http.StatusBadRequest, fmt.Sprintf("observed_mbps must be finite and in [0, %g], horizon in [0, %d]", MaxObservedMbps, MaxHorizon)
	case wire.OpUnavailable:
		return 0, http.StatusBadGateway, "no usable replica"
	default:
		return 0, http.StatusInternalServerError, fmt.Sprintf("backend answered unknown result code %d", res.Code)
	}
}
