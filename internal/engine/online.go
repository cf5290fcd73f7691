package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
)

// Online-learning errors callers branch on.
var (
	// ErrOnlineDisabled: the service was not EnableOnline'd; intake and
	// drift-triggered retraining are unavailable (HTTP 501).
	ErrOnlineDisabled = errors.New("engine: online learning disabled")
	// ErrNotEnoughTraces: the intake buffer held fewer sessions than
	// OnlineOptions.MinRetrainSessions, so no candidate was trained.
	ErrNotEnoughTraces = errors.New("engine: not enough buffered traces to retrain")
)

// Fixed parameters of the serving→training loop (DESIGN.md §15).
const (
	// minWindowEpochs is the minimum APE samples a drift window needs
	// before it is classified (smaller windows keep accumulating).
	minWindowEpochs = 200
	// holdoutFrac is the fraction of the drained intake batch (most recent,
	// by push order) reserved as the promotion gate's holdout instead of
	// being trained on.
	holdoutFrac = 0.25
	// maxCapturedEpochs bounds the per-session observation capture that
	// feeds served sessions into the intake ring.
	maxCapturedEpochs = 512
)

// OnlineOptions configures the serving→training loop: intake sizing, drift
// sensitivity, retrain thresholds, and where candidates are published.
type OnlineOptions struct {
	// IntakeCapacity bounds the trace-intake ring. Default 4096 sessions.
	IntakeCapacity int
	// DriftBand is the relative midstream-APE regression that counts as
	// drift: a window fires when its median APE exceeds the armed
	// reference by more than this fraction. Default 0.5 (i.e. +50%).
	DriftBand float64
	// MinRetrainSessions is the minimum buffered sessions OnlineRetrain
	// needs; below it the buffer keeps accumulating. Default 50.
	MinRetrainSessions int
	// Interval is RunOnlineLoop's drift-check cadence. Default 30s.
	Interval time.Duration
	// Registry, when non-nil, receives every accepted candidate as a
	// published artifact; promotion then flows through InstallArtifact, so
	// the artifact trail and the serving model can never disagree. When
	// nil, candidates install in-process (still gated).
	Registry *registry.Registry
	// Online configures the incremental learner (decay, passes, minimums).
	Online core.OnlineConfig
}

func (o OnlineOptions) withDefaults() OnlineOptions {
	if o.IntakeCapacity <= 0 {
		o.IntakeCapacity = 4096
	}
	if o.DriftBand <= 0 {
		o.DriftBand = 0.5
	}
	if o.MinRetrainSessions <= 0 {
		o.MinRetrainSessions = 50
	}
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	return o
}

// onlineState is the online-learning plane hung off a Service by
// EnableOnline: the intake ring, the drift detector, and the incremental
// learner (rebuilt whenever the serving generation moves under it).
type onlineState struct {
	opts  OnlineOptions
	sink  *TraceSink
	drift *driftDetector

	// retrainOnce serializes OnlineRetrain and guards learner/learnerGen.
	retrainOnce chan struct{}
	learner     *core.OnlineLearner
	learnerGen  uint64
}

// EnableOnline switches the serving→training loop on. Must be called after
// SetMetrics (the drift detector reads the live midstream-APE histogram) and
// before serving traffic — like SetMetrics, the pointer install is not
// synchronized against in-flight requests.
func (s *Service) EnableOnline(opts OnlineOptions) error {
	if s.m.apeMidstream == nil {
		return fmt.Errorf("engine: EnableOnline requires SetMetrics first (drift reads the live APE histogram)")
	}
	opts = opts.withDefaults()
	if opts.MinRetrainSessions > opts.IntakeCapacity {
		return fmt.Errorf("engine: min retrain sessions %d exceed intake capacity %d: the ring could never hold enough to retrain",
			opts.MinRetrainSessions, opts.IntakeCapacity)
	}
	sink, err := NewTraceSink(opts.IntakeCapacity)
	if err != nil {
		return err
	}
	o := &onlineState{
		opts:        opts,
		sink:        sink,
		drift:       newDriftDetector(s.m.apeMidstream, opts.DriftBand, minWindowEpochs),
		retrainOnce: make(chan struct{}, 1),
	}
	o.retrainOnce <- struct{}{}
	s.online.Store(o)
	return nil
}

// OnlineEnabled reports whether EnableOnline has been called.
func (s *Service) OnlineEnabled() bool { return s.online.Load() != nil }

// IntakeBuffered reports the intake ring's buffered session count (0 when
// online learning is disabled).
func (s *Service) IntakeBuffered() int {
	o := s.online.Load()
	if o == nil {
		return 0
	}
	return o.sink.Len()
}

// IngestResult is one Ingest call's accounting.
type IngestResult struct {
	// Accepted sessions entered the intake ring.
	Accepted int `json:"accepted"`
	// Evicted is how many older sessions the accepted ones displaced.
	Evicted int `json:"evicted"`
	// Buffered is the ring occupancy after the call.
	Buffered int `json:"buffered"`
}

// Ingest pushes externally collected completed sessions into the trace
// intake — the POST /v1/ingest path for players or log shippers that observe
// throughput the engine never served. Partial success is possible: on
// backpressure the result counts what got in before the ring refused.
func (s *Service) Ingest(sessions []*trace.Session) (IngestResult, error) {
	o := s.online.Load()
	if o == nil {
		return IngestResult{}, ErrOnlineDisabled
	}
	var res IngestResult
	var err error
	for _, sess := range sessions {
		var evicted bool
		if evicted, err = s.pushIntake(o, sess); err != nil {
			break
		}
		res.Accepted++
		if evicted {
			res.Evicted++
		}
	}
	res.Buffered = o.sink.Len()
	return res, err
}

// pushIntake is the one door into the intake ring, for ingested and served
// sessions alike: it pushes sess, counts the outcome (accepted, evicted or
// rejected) and updates the buffered-sessions gauge.
func (s *Service) pushIntake(o *onlineState, sess *trace.Session) (evicted bool, err error) {
	if evicted, err = o.sink.Push(sess); err != nil {
		s.m.ingestRejected.Inc()
	} else {
		s.m.ingestAccepted.Inc()
		if evicted {
			s.m.ingestEvicted.Inc()
		}
	}
	s.m.intakeBuffered.Set(float64(o.sink.Len()))
	return evicted, err
}

// captureEpoch records one served observation for the intake pipeline.
// Caller holds st.mu.
func (s *Service) captureEpoch(st *sessionState, observedMbps float64) {
	o := s.online.Load()
	if o == nil || len(st.captured) >= maxCapturedEpochs {
		return
	}
	st.captured = append(st.captured, observedMbps)
}

// DriftCheck runs one drift-detector inspection of the live midstream-APE
// window and returns its classification. Zero DriftStatus when online
// learning is disabled.
func (s *Service) DriftCheck() DriftStatus {
	o := s.online.Load()
	if o == nil {
		return DriftStatus{}
	}
	st := o.drift.check()
	s.m.driftChecks.Inc()
	if st.Fired {
		s.m.driftFired.Inc()
		s.logfSafe("engine: drift detected: window median APE %.4f vs reference %.4f (band %.0f%%, %d epochs)",
			st.WindowMedianAPE, st.ReferenceAPE, o.opts.DriftBand*100, st.WindowEpochs)
	}
	return st
}

// OnlineRetrain drains the intake buffer, incrementally updates the
// incumbent's models on the older part, and submits the candidate to the
// promotion gate with the newest part as holdout — via the registry
// (publish + InstallArtifact) when one is configured, in-process otherwise.
// A candidate that does not beat the incumbent on the holdout is rejected
// (ErrPromotionRejected) and the incumbent keeps serving; on acceptance the
// drift detector re-arms against the new model.
func (s *Service) OnlineRetrain() error {
	o := s.online.Load()
	if o == nil {
		return ErrOnlineDisabled
	}
	select {
	case <-o.retrainOnce:
	default:
		return fmt.Errorf("engine: online retrain already in progress")
	}
	defer func() { o.retrainOnce <- struct{}{} }()

	// Checked before draining: a short ring keeps accumulating.
	if n := o.sink.Len(); n < o.opts.MinRetrainSessions {
		return fmt.Errorf("%w: %d buffered, need %d", ErrNotEnoughTraces, n, o.opts.MinRetrainSessions)
	}
	data := o.sink.Snapshot()
	s.m.intakeBuffered.Set(0)

	// Push-order split: train on the older slice, hold out the newest —
	// the gate judges the candidate on traffic it has not absorbed.
	n := data.Len()
	h := int(float64(n) * holdoutFrac)
	if h < 1 {
		h = 1
	}
	trainDS := &trace.Dataset{EpochSeconds: data.EpochSeconds, Sessions: data.Sessions[:n-h]}
	holdout := &trace.Dataset{EpochSeconds: data.EpochSeconds, Sessions: data.Sessions[n-h:]}

	snap := s.Snapshot()
	if o.learner == nil || o.learnerGen != snap.Generation() {
		l, err := core.NewOnlineLearner(snap.Engine(), o.opts.Online)
		if err != nil {
			s.m.onlineRetrainFailed.Inc()
			return fmt.Errorf("engine: online retrain: %w", err)
		}
		o.learner, o.learnerGen = l, snap.Generation()
	}
	if err := o.learner.Absorb(trainDS.Sessions); err != nil {
		s.m.onlineRetrainFailed.Inc()
		return fmt.Errorf("engine: online retrain: %w", err)
	}
	cand, err := o.learner.Candidate()
	if err != nil {
		s.m.onlineRetrainFailed.Inc()
		return fmt.Errorf("engine: online retrain: %w", err)
	}

	// The gate must judge candidate vs incumbent on the fresh holdout; a
	// stale (or absent) policy holdout would measure the wrong traffic.
	s.setPromotionHoldout(holdout)

	trainedAt := time.Now().Unix()
	var perr error
	if reg := o.opts.Registry; reg != nil {
		epochs := 0
		for _, sess := range trainDS.Sessions {
			epochs += len(sess.Throughput)
		}
		meta := core.TrainingMeta{
			TrainedAtUnix: trainedAt,
			TraceSessions: trainDS.Len(),
			TraceEpochs:   epochs,
			Clusters:      cand.Clusters(),
			Holdout:       core.EvaluateHoldout(cand, holdout),
		}
		man, err := reg.Publish(cand.Store(), meta)
		if err != nil {
			s.m.onlineRetrainFailed.Inc()
			return fmt.Errorf("engine: publishing online candidate: %w", err)
		}
		art, err := reg.Get(man.Version)
		if err != nil {
			s.m.onlineRetrainFailed.Inc()
			return fmt.Errorf("engine: reloading online candidate v%d: %w", man.Version, err)
		}
		_, perr = s.InstallArtifact(art)
	} else {
		_, perr = s.promote(&ModelSnapshot{engine: cand, trainedAtUnix: trainedAt}, true)
	}
	if perr != nil {
		if errors.Is(perr, ErrPromotionRejected) {
			s.m.onlineRetrainRejected.Inc()
		} else {
			s.m.onlineRetrainFailed.Inc()
		}
		return fmt.Errorf("engine: online retrain: %w", perr)
	}
	s.m.onlineRetrainAccepted.Inc()
	o.learnerGen = s.Snapshot().Generation()
	o.drift.rearm()
	s.logfSafe("engine: online retrain promoted (%d train + %d holdout sessions, generation %d)",
		trainDS.Len(), holdout.Len(), o.learnerGen)
	return nil
}

// setPromotionHoldout points the promotion gate's shared evaluation slice at
// the latest intake holdout, preserving a configured tolerance (a fresh
// policy defaults to 10%).
func (s *Service) setPromotionHoldout(holdout *trace.Dataset) {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	if s.policy == nil {
		s.policy = &PromotionPolicy{Tolerance: 0.1}
	}
	s.policy.Holdout = holdout
}

// RunOnlineLoop periodically checks for drift and retrains when it fires —
// the background controller cs2p-server runs when -online-retrain is set.
// Returns when ctx is cancelled or online learning is disabled.
func (s *Service) RunOnlineLoop(ctx context.Context) {
	o := s.online.Load()
	if o == nil {
		return
	}
	t := time.NewTicker(o.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st := s.DriftCheck()
			if !st.Fired {
				continue
			}
			if err := s.OnlineRetrain(); err != nil {
				s.logfSafe("engine: drift-triggered retrain: %v", err)
			}
		}
	}
}
