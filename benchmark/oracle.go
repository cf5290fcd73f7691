package main

import (
	"math"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/trace"
)

// oracle computes, in the driver's process, the answer every op must get:
// the same artifact the tier booted from, rebuilt into a core.Engine, with
// one core.SessionPredictor per played session stepped in the session's op
// order. It goes through core rather than engine.Service because
// engine.StartSession also runs the 30-rollout rebuffer estimate (~9 ms),
// which the oracle does not check and the driver's core cannot afford.
type oracle struct {
	eng *core.Engine
}

func newOracle(art *core.Artifact) (*oracle, error) {
	eng, err := core.NewEngineFromStore(art.Store)
	if err != nil {
		return nil, err
	}
	return &oracle{eng: eng}, nil
}

// start opens the oracle's copy of a session exactly as
// engine.Service.StartSession builds the served one.
func (o *oracle) start(id string, s *loadSession) *core.SessionPredictor {
	return o.eng.NewSessionPredictor(&trace.Session{
		ID: id, StartUnix: s.startUnix, Features: s.features, Throughput: []float64{1},
	})
}

// startOK checks a start answer's initial prediction and cluster id.
func startOK(p *core.SessionPredictor, got engine.StartResponse) bool {
	return sameBits(p.InitialPrediction(), got.InitialPredictionMbps) && p.ClusterID() == got.ClusterID
}

// observeOK steps the oracle session by one observation and checks the
// served next-epoch prediction against it. Bit equality holds for both
// encodings: binary v2 carries IEEE-754 doubles verbatim and encoding/json
// prints the shortest decimal that parses back to the same double.
func observeOK(p *core.SessionPredictor, observed, got float64) bool {
	p.Observe(observed)
	return sameBits(p.PredictAhead(1), got)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
