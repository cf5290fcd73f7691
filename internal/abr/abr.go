// Package abr implements the bitrate-adaptation controllers the paper
// evaluates (§5.3, §7.3): the MPC strategy of Yin et al. that CS2P plugs
// into (searched online, see MPC), the Rate-Based (RB) and Buffer-Based (BB)
// baselines, fixed bitrate, and the offline-optimal dynamic program used to
// normalize QoE.
package abr

import (
	"math"

	"cs2p/internal/qoe"
	"cs2p/internal/video"
)

// Predictor is the throughput-forecast surface controllers consume:
// PredictAhead(i) estimates the throughput (Mbps) i chunks ahead.
// predict.Midstream satisfies it.
type Predictor interface {
	PredictAhead(k int) float64
}

// State is what a controller sees when choosing the next chunk's level.
type State struct {
	// ChunkIndex is the index of the chunk about to be requested.
	ChunkIndex int
	// NumChunks is the total number of chunks in this playback.
	NumChunks int
	// LastLevel is the previous chunk's level, or -1 before the first.
	LastLevel int
	// BufferSeconds is the current playback buffer occupancy.
	BufferSeconds float64
}

// Controller chooses bitrate levels.
type Controller interface {
	Name() string
	// ChooseLevel picks the level for the chunk described by st, given a
	// throughput predictor. Implementations must return a valid level
	// index for spec.
	ChooseLevel(spec video.Spec, st State, pred Predictor) int
}

// Fixed always streams one level, like the fixed-bitrate providers of
// Table 1.
type Fixed struct{ Level int }

// Name implements Controller.
func (f Fixed) Name() string { return "Fixed" }

// ChooseLevel implements Controller.
func (f Fixed) ChooseLevel(spec video.Spec, _ State, _ Predictor) int {
	return clampLevel(f.Level, spec)
}

// RB is the Rate-Based controller: pick the highest bitrate under the
// predicted throughput times a safety factor.
type RB struct {
	// Safety discounts the prediction (default 1.0, i.e. none).
	Safety float64
}

// Name implements Controller.
func (RB) Name() string { return "RB" }

// ChooseLevel implements Controller.
func (r RB) ChooseLevel(spec video.Spec, _ State, pred Predictor) int {
	s := r.Safety
	if s <= 0 {
		s = 1
	}
	w := pred.PredictAhead(1)
	if math.IsNaN(w) {
		return 0
	}
	return spec.LevelForThroughput(w * s)
}

// BB is the Buffer-Based controller (Huang et al.): below the reservoir
// stream the lowest level, above reservoir+cushion the highest, and a linear
// ramp in between. No throughput prediction is used.
type BB struct {
	// ReservoirSeconds defaults to 5; CushionSeconds defaults to
	// bufferCap - reservoir - 2 (leaving headroom at the top).
	ReservoirSeconds float64
	CushionSeconds   float64
}

// Name implements Controller.
func (BB) Name() string { return "BB" }

// ChooseLevel implements Controller.
func (b BB) ChooseLevel(spec video.Spec, st State, _ Predictor) int {
	reservoir := b.ReservoirSeconds
	if reservoir <= 0 {
		reservoir = 5
	}
	cushion := b.CushionSeconds
	if cushion <= 0 {
		cushion = spec.BufferCapSeconds - reservoir - 2
		if cushion <= 0 {
			cushion = spec.BufferCapSeconds / 2
		}
	}
	buf := st.BufferSeconds
	lo := spec.BitratesKbps[0]
	hi := spec.BitratesKbps[spec.Levels()-1]
	switch {
	case buf <= reservoir:
		return 0
	case buf >= reservoir+cushion:
		return spec.Levels() - 1
	default:
		target := lo + (hi-lo)*(buf-reservoir)/cushion
		// Highest level not exceeding the ramp target.
		best := 0
		for i, r := range spec.BitratesKbps {
			if r <= target {
				best = i
			}
		}
		return best
	}
}

func clampLevel(l int, spec video.Spec) int {
	if l < 0 {
		return 0
	}
	if l >= spec.Levels() {
		return spec.Levels() - 1
	}
	return l
}

// InitialLevel is the paper's initial-bitrate rule (§5.3): the highest
// sustainable bitrate below the predicted initial throughput.
func InitialLevel(spec video.Spec, predictedMbps float64) int {
	if math.IsNaN(predictedMbps) || predictedMbps <= 0 {
		return 0
	}
	return spec.LevelForThroughput(predictedMbps)
}

// MPC is online receding-horizon model-predictive control in the style of
// Yin et al.: at every chunk it enumerates every bitrate plan over a lookahead
// horizon, simulates the buffer under the predicted throughput, scores each
// plan with the QoE model, and commits only the plan's first level. It is not
// Yin et al.'s FastMPC, which looks decisions up in a table precomputed
// offline; the search here runs per call, depth-first in ascending-level
// lexicographic order under an admissible bound (a prefix is dropped once even
// the top bitrate on every remaining chunk cannot beat the best plan so far).
// Tie rule: the first plan in that order with a strictly higher score wins.
type MPC struct {
	// Horizon is the lookahead in chunks (the paper uses 5).
	Horizon int
	// Weights are the QoE coefficients (DefaultWeights if zero).
	Weights qoe.Weights
}

// Name implements Controller.
func (MPC) Name() string { return "MPC" }

// mpcStackDim is the horizon and ladder size up to which ChooseLevel's
// scratch lives on its stack frame (the paper's setup is 5 and 5); larger
// searches run the same code on heap slices.
const mpcStackDim = 8

// mpcFrame is one depth of the search: the buffer, score and previous level
// on entering it, the most a plan can still earn from there on (the top
// bitrate on every remaining chunk), and the next level to try.
type mpcFrame struct {
	buf, score, bound float64
	last, next        int
}

// ChooseLevel implements Controller. Everything a plan's score needs beyond
// the running buffer is tabulated once per call — download seconds per
// (depth, level), switch penalty per (from, to) — so the search itself is
// adds and compares, and allocates nothing.
func (m MPC) ChooseLevel(spec video.Spec, st State, pred Predictor) int {
	h := m.Horizon
	if h <= 0 {
		h = 5
	}
	if remaining := st.NumChunks - st.ChunkIndex; remaining < h {
		h = remaining
	}
	if h <= 0 {
		return 0
	}
	w := m.Weights
	if w == (qoe.Weights{}) {
		w = qoe.DefaultWeights()
	}
	nl := spec.Levels()
	var dlA, penA [mpcStackDim * mpcStackDim]float64
	var frA [mpcStackDim + 1]mpcFrame
	dl, pen, fr := dlA[:], penA[:], frA[:]
	if h > mpcStackDim || nl > mpcStackDim {
		dl, pen, fr = make([]float64, h*nl), make([]float64, nl*nl), make([]mpcFrame, h+1)
	}
	for d := 0; d < h; d++ {
		p := pred.PredictAhead(d + 1)
		if math.IsNaN(p) || p <= 0 {
			p = 0.1 // pessimistic floor when no prediction exists
		}
		for lvl := 0; lvl < nl; lvl++ {
			dl[d*nl+lvl] = spec.DownloadSeconds(lvl, p)
		}
	}
	for from, a := range spec.BitratesKbps {
		for to, b := range spec.BitratesKbps {
			pen[from*nl+to] = w.Lambda * math.Abs(b-a)
		}
	}
	for d := 0; d <= h; d++ {
		fr[d].bound = float64(h-d) * spec.BitratesKbps[nl-1]
	}
	bestLevel, bestScore := 0, math.Inf(-1)
	fr[0].buf, fr[0].last = st.BufferSeconds, st.LastLevel
	for d := 0; d >= 0; {
		f := &fr[d]
		if f.next == nl {
			d--
			continue
		}
		lvl := f.next
		f.next++
		nbuf, rebuf := f.buf, 0.0
		if t := dl[d*nl+lvl]; t > nbuf {
			rebuf = t - nbuf
			nbuf = 0
		} else {
			nbuf -= t
		}
		nbuf += spec.ChunkSeconds
		if nbuf > spec.BufferCapSeconds {
			nbuf = spec.BufferCapSeconds
		}
		s := f.score + spec.BitratesKbps[lvl] - w.Mu*rebuf
		if f.last >= 0 {
			s -= pen[f.last*nl+lvl]
		}
		if s <= bestScore-fr[d+1].bound {
			continue // the top bitrate on every remaining chunk cannot catch up
		}
		if d+1 == h {
			if s > bestScore {
				bestScore, bestLevel = s, fr[0].next-1
			}
			continue
		}
		d++
		fr[d].buf, fr[d].score, fr[d].last, fr[d].next = nbuf, s, lvl, 0
	}
	return bestLevel
}
