package engine

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cs2p/internal/hmm"
	"cs2p/internal/trace"
)

// SessionStateSchema versions the exported session-state payload. An
// importer seeing a schema it does not speak must refuse the transfer (the
// caller restarts the session from the cluster prior) rather than guess at
// field semantics.
const SessionStateSchema = 1

// Session-state transfer errors callers branch on.
var (
	// ErrSessionStateSchema: the payload's schema version is not one this
	// build understands.
	ErrSessionStateSchema = errors.New("engine: unsupported session state schema")
	// ErrSessionStateModelMismatch: the exported posterior indexes the
	// states of a different trained model (generation/version/cluster
	// guard). Importing it would be silent corruption — the caller must
	// restart the session under the local model instead.
	ErrSessionStateModelMismatch = errors.New("engine: session state from a different model")
	// ErrInvalidSessionState: the payload is structurally unusable
	// (missing identity, non-probability posterior).
	ErrInvalidSessionState = errors.New("engine: invalid session state")
)

// SessionState is the versioned session-recovery payload: everything needed
// to recreate a live session on any replica serving the same model, such
// that every subsequent prediction is bit-identical to the session never
// having moved. The HMM posterior is the heart of it; the rest is the
// session's routing identity (to rebuild the predictor), telemetry state
// (so APE scoring continues seamlessly), and the model identity guard.
type SessionState struct {
	Schema    int            `json:"schema"`
	SessionID string         `json:"session_id"`
	Features  trace.Features `json:"features"`
	StartUnix int64          `json:"start_unix"`
	// ModelVersion/ModelGeneration identify the model the posterior was
	// filtered under. Version is the registry artifact identity (stable
	// across processes); generation is the local install counter, the only
	// identity an in-process-trained model has.
	ModelVersion    uint64 `json:"model_version"`
	ModelGeneration uint64 `json:"model_generation"`
	// ClusterID is the cluster the session's features resolved to at
	// export. The importer re-resolves and must land on the same cluster —
	// a cheap second witness that both sides serve the same model.
	ClusterID string    `json:"cluster_id"`
	Posterior []float64 `json:"posterior"`
	Started   bool      `json:"started"`
	Epoch     int       `json:"epoch"`
	// LastOneStep is the pending 1-step-ahead prediction awaiting its
	// score; nil when unknown (JSON cannot carry NaN).
	LastOneStep *float64 `json:"last_one_step,omitempty"`
	// Captured is the observed throughput series recorded for the
	// online-learning intake, when the exporting replica captures one.
	Captured []float64 `json:"captured,omitempty"`
}

// ExportSession snapshots a live session's exact state for recovery elsewhere.
// The session keeps serving; the snapshot is a consistent copy taken under
// the session lock.
func (s *Service) ExportSession(id string) (SessionState, error) {
	st, err := s.session(id)
	if err != nil {
		return SessionState{}, err
	}
	s.lockSession(st)
	defer st.mu.Unlock()
	fs := st.pred.Filter().Snapshot()
	out := SessionState{
		Schema:          SessionStateSchema,
		SessionID:       id,
		Features:        st.features,
		StartUnix:       st.startUnix,
		ModelVersion:    st.modelVersion,
		ModelGeneration: st.modelGen,
		ClusterID:       st.pred.ClusterID(),
		Posterior:       fs.Posterior,
		Started:         fs.Started,
		Epoch:           st.epoch,
	}
	if !math.IsNaN(st.lastOneStep) {
		v := st.lastOneStep
		out.LastOneStep = &v
	}
	if len(st.captured) > 0 {
		out.Captured = append([]float64(nil), st.captured...)
	}
	return out, nil
}

// ImportSession installs an exported session under the current model
// snapshot. The generation guard refuses state filtered under a different
// model: posteriors are indexed by hidden-state identity, which only exists
// within one trained model. When both sides carry an artifact version the
// versions must match (generation counters are per-process and may lag
// behind rolling restarts); models without artifact identity fall back to
// comparing generations. An existing session with the same ID is replaced,
// mirroring StartSession's duplicate-ID reset.
func (s *Service) ImportSession(st SessionState) error {
	if st.Schema != SessionStateSchema {
		return fmt.Errorf("%w: got %d, want %d", ErrSessionStateSchema, st.Schema, SessionStateSchema)
	}
	if st.SessionID == "" {
		return fmt.Errorf("%w: session_id required", ErrInvalidSessionState)
	}
	snap := s.snap.Load()
	if snap.engine == nil {
		return fmt.Errorf("%w: no model installed", ErrSessionStateModelMismatch)
	}
	if st.ModelVersion != 0 || snap.version != 0 {
		if st.ModelVersion != snap.version {
			return fmt.Errorf("%w: state from artifact v%d, serving v%d",
				ErrSessionStateModelMismatch, st.ModelVersion, snap.version)
		}
	} else if st.ModelGeneration != snap.gen {
		return fmt.Errorf("%w: state from generation %d, serving generation %d",
			ErrSessionStateModelMismatch, st.ModelGeneration, snap.gen)
	}
	sess := &trace.Session{ID: st.SessionID, StartUnix: st.StartUnix, Features: st.Features, Throughput: []float64{1}}
	p := snap.engine.NewSessionPredictor(sess)
	if st.ClusterID != "" && p.ClusterID() != st.ClusterID {
		return fmt.Errorf("%w: features resolve to cluster %q here, %q at export",
			ErrSessionStateModelMismatch, p.ClusterID(), st.ClusterID)
	}
	if err := p.Filter().Restore(hmm.FilterState{Posterior: st.Posterior, Started: st.Started}); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSessionState, err)
	}
	ns := &sessionState{
		pred:         p,
		lastOneStep:  math.NaN(),
		epoch:        st.Epoch,
		modelGen:     snap.gen,
		modelVersion: snap.version,
		features:     st.Features,
		startUnix:    st.StartUnix,
	}
	if st.LastOneStep != nil {
		ns.lastOneStep = *st.LastOneStep
	}
	if s.online.Load() != nil && len(st.Captured) > 0 {
		ns.captured = append([]float64(nil), st.Captured...)
	}
	// No start is counted: cluster-wide, a player session starts once.
	s.store.Put(st.SessionID, ns, time.Now())
	s.m.sessionsActive.Set(float64(s.store.Len()))
	s.refreshShardGauges()
	return nil
}
