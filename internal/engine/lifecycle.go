package engine

import (
	"errors"
	"fmt"
	"sync"

	"cs2p/internal/core"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// Lifecycle errors callers branch on.
var (
	// ErrPromotionRejected: the candidate model failed the promotion gate
	// and was not installed; the incumbent keeps serving.
	ErrPromotionRejected = errors.New("engine: candidate rejected by promotion gate")
	// ErrNoPreviousModel: Rollback was called before any install displaced
	// a snapshot.
	ErrNoPreviousModel = errors.New("engine: no previous model to roll back to")
)

// PromotionPolicy gates model promotion: a candidate is installed only when
// its holdout error is within Tolerance of the incumbent's. This is the
// safety valve the paper's daily-retrain cadence needs in production — a bad
// trace day must not silently degrade every player's bitrate decisions.
type PromotionPolicy struct {
	// Tolerance is the allowed relative regression: candidate median APE may
	// be at most (1+Tolerance)× the incumbent's. 0 demands no-worse-than.
	Tolerance float64
	// Holdout, when non-nil and non-empty, is the shared evaluation slice:
	// both candidate and incumbent are replayed on it at promotion time, so
	// the comparison is apples-to-apples. When nil, the gate falls back to
	// comparing recorded holdout metrics (artifact manifests), and accepts
	// when either side has none — no evidence is not grounds for rejection.
	Holdout *trace.Dataset
}

// SetPromotionPolicy installs (or, with nil, removes) the promotion gate.
func (s *Service) SetPromotionPolicy(p *PromotionPolicy) {
	s.retrainMu.Lock()
	s.policy = p
	s.retrainMu.Unlock()
}

// gateLocked decides whether cand may replace the current snapshot. As a
// side effect it records the candidate's live-evaluated holdout metrics on
// the snapshot (so a later manifest-mode comparison has them). Caller holds
// retrainMu.
func (s *Service) gateLocked(cand *ModelSnapshot) error {
	pol := s.policy
	cur := s.snap.Load()
	var candM, curM core.HoldoutMetrics
	var candOK, curOK bool
	if pol != nil && pol.Holdout != nil && pol.Holdout.Len() > 0 {
		candM = core.EvaluateHoldout(cand.engine, pol.Holdout)
		candOK = candM.Valid()
		cand.holdout, cand.hasHoldout = candM, candOK
		curM = core.EvaluateHoldout(cur.engine, pol.Holdout)
		curOK = curM.Valid()
	} else {
		candM, candOK = cand.holdout, cand.hasHoldout
		curM, curOK = cur.holdout, cur.hasHoldout
	}
	if pol == nil || !candOK || !curOK {
		return nil
	}
	limit := curM.MedianAPE * (1 + pol.Tolerance)
	if candM.MedianAPE > limit {
		s.m.promotionsRejected.Inc()
		return fmt.Errorf("%w: candidate median APE %.4f vs incumbent %.4f (tolerance %.0f%%)",
			ErrPromotionRejected, candM.MedianAPE, curM.MedianAPE, pol.Tolerance*100)
	}
	return nil
}

// promote is the one door into the serving model: under retrainMu it runs
// the promotion gate (when gated), installs cand as the next generation,
// and counts and logs the outcome. Everything that changes the serving
// model is a producer that builds a candidate and calls it — the registry
// watch and the online retrainer's registry path (InstallArtifact), the
// registry-less online path, the admin Rollback, and InstallEngine. A
// rejected candidate leaves the incumbent serving untouched.
func (s *Service) promote(cand *ModelSnapshot, gated bool) (uint64, error) {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	return s.promoteLocked(cand, gated)
}

// promoteLocked is promote for a producer that already holds retrainMu
// (Rollback reads its candidate, prev, under the same lock).
func (s *Service) promoteLocked(cand *ModelSnapshot, gated bool) (uint64, error) {
	if gated {
		if err := s.gateLocked(cand); err != nil {
			s.logfSafe("engine: candidate (version %d) not promoted: %v", cand.version, err)
			return 0, err
		}
		s.m.promotionsAccepted.Inc()
	}
	gen := s.installLocked(cand)
	s.logfSafe("engine: serving model version %d as generation %d", cand.version, gen)
	return gen, nil
}

// artifactSnapshot builds the serving snapshot of a verified registry
// artifact, carrying its version, training time, and holdout metrics.
func artifactSnapshot(a *core.Artifact) (*ModelSnapshot, error) {
	if a == nil || a.Store == nil {
		return nil, fmt.Errorf("engine: nil artifact")
	}
	e, err := core.NewEngineFromStore(a.Store)
	if err != nil {
		return nil, fmt.Errorf("engine: building engine from artifact v%d: %w", a.Manifest.Version, err)
	}
	return &ModelSnapshot{
		engine:        e,
		version:       a.Manifest.Version,
		trainedAtUnix: a.Manifest.TrainedAtUnix,
		holdout:       a.Manifest.Holdout,
		hasHoldout:    a.Manifest.Holdout.Valid(),
		forecasts:     new(sync.Map),
	}, nil
}

// InstallArtifact passes a verified registry artifact through the promotion
// gate and atomically installs it as the next generation. The rejected
// candidate stays on disk in the registry (nothing is deleted) and the
// rejection is counted. Returns the new generation on success.
func (s *Service) InstallArtifact(a *core.Artifact) (uint64, error) {
	cand, err := artifactSnapshot(a)
	if err != nil {
		return 0, err
	}
	return s.promote(cand, true)
}

// Rollback re-installs the snapshot displaced by the last install, as a new
// generation (generations only move forward; caches must still invalidate).
// The displaced snapshot becomes the new rollback target, so two rollbacks
// alternate. Returns the new generation.
func (s *Service) Rollback() (uint64, error) {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	if s.prev == nil {
		return 0, ErrNoPreviousModel
	}
	restored := *s.prev
	s.m.rollbacks.Inc()
	return s.promoteLocked(&restored, false)
}

// NewServiceFromArtifact boots a service directly from a verified registry
// artifact — the §5.3 deployment path where a video server cold-starts from
// shipped models with no raw trace. The snapshot carries the artifact's
// version, training time, and holdout metrics, so the promotion gate and the
// admin surface work from the first request.
func NewServiceFromArtifact(a *core.Artifact, cfg core.Config, spec video.Spec, opts ServiceOptions) (*Service, error) {
	snap, err := artifactSnapshot(a)
	if err != nil {
		return nil, err
	}
	s := NewServiceWithOptions(snap.engine, cfg, spec, opts)
	s.snap.Store(snap)
	return s, nil
}
