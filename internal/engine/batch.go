package engine

import (
	"time"

	"cs2p/internal/wire"
)

// BatchOp and BatchResult are the per-chunk op and its outcome — wire's
// vocabulary (package wire is a leaf: the types and result codes every layer
// from codec to filter shares, plus their binary encoding; the engine uses
// the first half), under the names ServeBatch's callers know.
type (
	BatchOp     = wire.Op
	BatchResult = wire.OpResult
)

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
			res[i] = BatchResult{Code: wire.OpInvalid}
			continue
		}
		st, ok := s.store.GetBytes(op.SessionID, now)
		if !ok {
			res[i] = BatchResult{Code: wire.OpUnknownSession}
			continue
		}
		h := op.Horizon
		if h <= 0 {
			h = 1
		}
		res[i] = BatchResult{Code: wire.OpOK, State: wire.State{Posterior: post}}
		s.lockSession(st)
		if op.HasObserve {
			res[i].PredictionMbps = s.observeLocked(st, op.ObservedMbps, h)
		} else {
			res[i].PredictionMbps = st.pred.PredictAhead(h)
		}
		if op.WantState {
			res[i].State = wire.State{
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
