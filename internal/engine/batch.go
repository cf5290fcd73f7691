package engine

import (
	"math"
	"time"
)

// Batch op result codes. They deliberately mirror the wire protocol's
// fixed-width per-op codes (wire.OpOK and friends) so the HTTP layer's
// translation is a branchless copy, but the engine does not import the wire
// package: the batch entrypoint is a transport-independent surface.
const (
	// BatchOK: the op produced a prediction.
	BatchOK uint8 = 0
	// BatchUnknownSession: no registered session under the op's id.
	BatchUnknownSession uint8 = 1
	// BatchInvalid: the op carried an unusable value (non-finite or
	// negative observation) and was not applied.
	BatchInvalid uint8 = 2
	// BatchUnavailable: the backend knows the session but could not reach
	// anything to serve it (a routing tier with every replica out). The
	// engine itself never returns it; the router does.
	BatchUnavailable uint8 = 3
)

// BatchOp is one observe/predict operation inside a batch — the CDN-edge
// request shape, where one front end multiplexes many players' chunk
// cadences into a single round trip. SessionID is raw bytes so a decoded
// wire frame can alias its pooled buffer straight through the store lookup
// without a string allocation; the engine never retains it. WantState asks
// for the session's post-op BatchState in the result (the routing tier's hop).
type BatchOp struct {
	SessionID    []byte
	ObservedMbps float64
	Horizon      int
	HasObserve   bool
	WantState    bool
}

// Malformed reports whether the op carries an observation no filter may
// absorb (non-finite or negative). Every BatchService answers BatchInvalid
// for such an op without touching session state — the contract the HTTP
// layer's in-place rejection of out-of-range ops relies on.
func (op *BatchOp) Malformed() bool {
	return op.HasObserve && (math.IsNaN(op.ObservedMbps) || math.IsInf(op.ObservedMbps, 0) || op.ObservedMbps < 0)
}

// BatchState is what of SessionState changes per epoch, plus the model
// identity the import guard checks, in allocation-free form (field for field
// wire.State). LastOneStep is NaN when none is pending; an empty Posterior
// means no state.
type BatchState struct {
	Posterior       []float64
	LastOneStep     float64
	ModelVersion    uint64
	ModelGeneration uint64
	Epoch           uint32
	Started         bool
}

// BatchResult is one op's outcome, index-aligned with the request ops.
// Failures are codes, not errors: a 256-op batch with one evicted session
// must not cost an allocation per miss, and the caller needs per-op
// granularity anyway (partial failure is the normal case at the edge).
// State is filled only for a BatchOK op that set WantState, into the slot's
// existing posterior buffer: a caller that recycles res pays no allocation.
type BatchResult struct {
	PredictionMbps float64
	Code           uint8
	State          BatchState
}

// ServeBatch applies ops in order and fills res (caller-allocated,
// len(res) must equal len(ops)), returning the model generation the batch
// was served under. The snapshot is pinned ONCE for the whole batch — a
// retrain landing mid-batch cannot hand two ops metadata from different
// generations (per-session predictions always come from the filter each
// session pinned at StartSession, exactly like the single-op path).
//
// Ops for the same session are applied in request order under that
// session's lock; ops for different sessions are independent. The steady
// state allocates nothing: lookups are byte-keyed, filters predict in
// preallocated scratch, and failures are codes.
func (s *Service) ServeBatch(ops []BatchOp, res []BatchResult) uint64 {
	snap := s.snap.Load()
	now := time.Now()
	for i := range ops {
		op := &ops[i]
		post := res[i].State.Posterior[:0]
		if op.Malformed() {
			res[i] = BatchResult{Code: BatchInvalid}
			continue
		}
		st, ok := s.store.GetBytes(op.SessionID, now)
		if !ok {
			res[i] = BatchResult{Code: BatchUnknownSession}
			continue
		}
		h := op.Horizon
		if h <= 0 {
			h = 1
		}
		res[i] = BatchResult{Code: BatchOK, State: BatchState{Posterior: post}}
		s.lockSession(st)
		if op.HasObserve {
			res[i].PredictionMbps = s.observeLocked(st, op.ObservedMbps, h)
		} else {
			res[i].PredictionMbps = st.pred.PredictAhead(h)
		}
		if op.WantState {
			res[i].State = BatchState{
				Posterior:       st.pred.Filter().AppendPosterior(post),
				LastOneStep:     st.lastOneStep,
				ModelVersion:    st.modelVersion,
				ModelGeneration: st.modelGen,
				Epoch:           uint32(st.epoch),
				Started:         st.pred.Filter().Started(),
			}
		}
		st.mu.Unlock()
	}
	return snap.gen
}
