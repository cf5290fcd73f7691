// Package sim is the trace-driven player simulator of §7.1: it replays a
// session's measured per-epoch throughput, simulates chunk downloads, buffer
// dynamics, startup and rebuffering under a bitrate controller and a
// throughput predictor, and reports the QoE metrics of the paper's model.
//
// The timing model follows the paper's setup (chunk duration equals the
// measurement epoch, 30 s buffer cap): chunk k downloads at throughput[k];
// the first chunk's download time is the startup delay; midstream, the
// buffer drains during downloads and stalls below zero are rebuffering.
package sim

import (
	"math"
	"math/rand"

	"cs2p/internal/abr"
	"cs2p/internal/predict"
	"cs2p/internal/qoe"
	"cs2p/internal/video"
)

// Result is one simulated playback.
type Result struct {
	Metrics qoe.Metrics
	QoE     float64
	Levels  []int
	// Chunks is the number of chunks actually played (the video may be
	// truncated to the trace length).
	Chunks int
}

// Play simulates one session. throughput is the trace's per-epoch Mbps;
// playback covers min(spec.NumChunks(), len(throughput)) chunks. pred may be
// nil, in which case controllers see NaN predictions (BB and Fixed ignore
// them; the initial chunk then starts at the lowest level, like players
// without initial prediction in Table 1).
func Play(spec video.Spec, ctrl abr.Controller, pred predict.Midstream, throughput []float64, w qoe.Weights) Result {
	n := spec.NumChunks()
	if len(throughput) < n {
		n = len(throughput)
	}
	if n == 0 {
		return Result{}
	}
	if w == (qoe.Weights{}) {
		w = qoe.DefaultWeights()
	}
	levels := make([]int, n)
	bitrates := make([]float64, n)
	rebufs := make([]float64, n)
	var startup float64
	buffer := 0.0
	last := -1
	for k := 0; k < n; k++ {
		var lvl int
		init := math.NaN()
		if k == 0 && pred != nil {
			init = pred.Predict()
		}
		if k == 0 && !math.IsNaN(init) {
			// Initial bitrate selection (§5.3): highest sustainable
			// level under the predicted initial throughput.
			lvl = abr.InitialLevel(spec, init)
		} else {
			// Midstream — or an initial chunk without a prediction, in
			// which case the controller decides from its own policy
			// (fixed players start at their level, buffer-based at the
			// bottom).
			st := abr.State{
				ChunkIndex:    k,
				NumChunks:     n,
				LastLevel:     last,
				BufferSeconds: buffer,
			}
			p := abr.Predictor(pred)
			if pred == nil {
				p = noPrediction{}
			}
			lvl = ctrl.ChooseLevel(spec, st, p)
		}
		levels[k] = lvl
		bitrates[k] = spec.BitratesKbps[lvl]
		wk := throughput[k]
		if wk <= 0 {
			wk = 1e-9
		}
		dl := spec.DownloadSeconds(lvl, wk)
		if k == 0 {
			startup = dl
			buffer = 0
		} else if dl > buffer {
			rebufs[k] = dl - buffer
			buffer = 0
		} else {
			buffer -= dl
		}
		buffer += spec.ChunkSeconds
		if buffer > spec.BufferCapSeconds {
			buffer = spec.BufferCapSeconds
		}
		if pred != nil {
			// The player measures throughput over the payload transfer
			// (the paper's clients count TCP segments over the epoch),
			// so the observation reflects path capacity; the request
			// overhead shows up only in timing.
			pred.Observe(throughput[k])
		}
		last = lvl
	}
	m := qoe.Metrics{
		BitratesKbps:    bitrates,
		RebufferSeconds: rebufs,
		StartupSeconds:  startup,
	}
	return Result{
		Metrics: m,
		QoE:     qoe.Score(m, w),
		Levels:  levels,
		Chunks:  n,
	}
}

// noPrediction satisfies abr.Predictor with NaN everywhere.
type noPrediction struct{}

func (noPrediction) PredictAhead(int) float64 { return math.NaN() }

// NormalizedQoE plays the session and divides by the offline optimal
// (perfect future knowledge), the paper's n-QoE.
func NormalizedQoE(spec video.Spec, ctrl abr.Controller, pred predict.Midstream, throughput []float64, w qoe.Weights) float64 {
	res := Play(spec, ctrl, pred, throughput, w)
	opt, _ := abr.OfflineOptimal{Weights: w}.Best(spec, capTrace(spec, throughput))
	return qoe.Normalized(res.QoE, opt)
}

// capTrace truncates the throughput trace to the number of chunks the
// simulator will play, so Play and OfflineOptimal see the same horizon.
func capTrace(spec video.Spec, throughput []float64) []float64 {
	n := spec.NumChunks()
	if len(throughput) < n {
		return throughput
	}
	return throughput[:n]
}

// NoisyOracle is the prediction-error injector behind Figure 2: it knows the
// true future throughput and perturbs each query by a uniform relative error
// of magnitude ErrFrac. ErrFrac 0 is a perfect oracle. It advances with the
// playback via Observe, like any predictor.
type NoisyOracle struct {
	w       []float64
	errFrac float64
	r       *rand.Rand
	idx     int
}

// NewNoisyOracle builds the injector over the session's true throughput. A
// perfect oracle never draws, so it gets no source: seeding one costs ~8 us
// and 5 KB, which engine.EstimateRebuffer would pay once per rollout.
func NewNoisyOracle(throughput []float64, errFrac float64, seed int64) *NoisyOracle {
	o := &NoisyOracle{w: throughput, errFrac: errFrac}
	if errFrac > 0 {
		o.r = rand.New(rand.NewSource(seed))
	}
	return o
}

// Predict implements predict.Midstream.
func (o *NoisyOracle) Predict() float64 { return o.PredictAhead(1) }

// PredictAhead implements predict.Midstream.
func (o *NoisyOracle) PredictAhead(k int) float64 {
	i := o.idx + k - 1
	if i >= len(o.w) {
		i = len(o.w) - 1
	}
	if i < 0 {
		return math.NaN()
	}
	truth := o.w[i]
	if o.errFrac <= 0 {
		return truth
	}
	return truth * (1 + o.errFrac*(2*o.r.Float64()-1))
}

// Observe implements predict.Midstream.
func (o *NoisyOracle) Observe(float64) { o.idx++ }
