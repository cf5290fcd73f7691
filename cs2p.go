// Package cs2p is a from-scratch Go implementation of CS2P, the
// data-driven throughput prediction system for video bitrate selection and
// adaptation from "CS2P: Improving Video Bitrate Selection and Adaptation
// with Data-Driven Throughput Prediction" (Sun et al., SIGCOMM 2016).
//
// CS2P trains per-cluster throughput models offline — grouping sessions
// that share the best-predicting combination of features (ISP, city,
// server, ...) and learning a Gaussian-emission hidden Markov model of each
// cluster's stateful throughput evolution — and predicts online: the first
// epoch from the cluster's median initial throughput, midstream epochs by
// filtering observations through the cluster HMM (the paper's Algorithm 1).
// The predictions plug into bitrate controllers such as FastMPC.
//
// Quick start:
//
//	dataset, _ := cs2p.GenerateTrace(cs2p.SmallTraceConfig()) // or load your own
//	engine, err := cs2p.Train(dataset, cs2p.DefaultConfig())
//	if err != nil { ... }
//	p := engine.NewSessionPredictor(session)
//	w0 := p.Predict()            // initial throughput estimate (Mbps)
//	p.Observe(measured)          // feed each epoch's measured throughput
//	w1 := p.Predict()            // next-epoch prediction
//
// The packages under internal/ hold the substrates (HMM, clustering,
// baselines, DASH player simulator, QoE model, MPC controller, HTTP
// service); this package re-exports the surface a downstream user needs.
// The cmd/ directory has runnable tools and examples/ has end-to-end
// programs.
package cs2p

import (
	"context"
	"io"

	"cs2p/internal/abr"
	"cs2p/internal/core"
	"cs2p/internal/predict"
	"cs2p/internal/qoe"
	"cs2p/internal/sim"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

// Dataset types (see internal/trace).
type (
	// Dataset is a collection of throughput-measurement sessions.
	Dataset = trace.Dataset
	// Session is one video session: features plus per-epoch throughput.
	Session = trace.Session
	// Features are the descriptive session attributes of the paper's
	// Table 2.
	Features = trace.Features
)

// Core engine types (see internal/core).
type (
	// Engine is a trained CS2P prediction engine.
	Engine = core.Engine
	// Config controls engine training.
	Config = core.Config
	// SessionPredictor runs the paper's Algorithm 1 for one session.
	SessionPredictor = core.SessionPredictor
	// ModelStore is the deployable, serializable model artifact.
	ModelStore = core.ModelStore
)

// Video/QoE/simulation types.
type (
	// VideoSpec describes a DASH bitrate ladder and player constraints.
	VideoSpec = video.Spec
	// QoEWeights are the QoE model coefficients of Yin et al.
	QoEWeights = qoe.Weights
	// QoEMetrics records what one playback experienced.
	QoEMetrics = qoe.Metrics
	// PlayResult is one simulated playback.
	PlayResult = sim.Result
	// Controller chooses bitrate levels (MPC, BB, RB, Fixed).
	Controller = abr.Controller
	// MidstreamPredictor is the common predictor interface.
	MidstreamPredictor = predict.Midstream
)

// Train builds a CS2P engine from past sessions (the offline stage of the
// paper's Figure 1).
func Train(train *Dataset, cfg Config) (*Engine, error) {
	return core.Train(train, cfg)
}

// TrainContext is Train with cancellation. Training fans out across
// cfg.Parallelism workers (0 = one per CPU, 1 = sequential); the trained
// engine is identical at every setting.
func TrainContext(ctx context.Context, train *Dataset, cfg Config) (*Engine, error) {
	return core.TrainContext(ctx, train, cfg)
}

// DefaultConfig returns the training configuration used by the paper's
// evaluation (6-state HMMs, feature-combination clustering).
func DefaultConfig() Config { return core.DefaultConfig() }

// LoadModelStore reads a serialized model store written by
// (*ModelStore).Save — engine.Store() is what a trained engine ships.
func LoadModelStore(r io.Reader) (*ModelStore, error) { return core.LoadModelStore(r) }

// NewEngineFromStore boots an engine from a shipped model store; it predicts
// bit-identically to the engine the store came from.
func NewEngineFromStore(ms *ModelStore) (*Engine, error) { return core.NewEngineFromStore(ms) }

// GenerateTrace synthesizes an iQiyi-like throughput dataset (the stand-in
// for the paper's proprietary trace; see DESIGN.md).
func GenerateTrace(cfg TraceConfig) (*Dataset, *GroundTruth) { return tracegen.Generate(cfg) }

// TraceConfig parameterizes the synthetic dataset.
type TraceConfig = tracegen.Config

// GroundTruth exposes the synthetic population's hidden cluster models.
type GroundTruth = tracegen.GroundTruth

// DefaultTraceConfig is the laptop-scale default (6000 sessions).
func DefaultTraceConfig() TraceConfig { return tracegen.DefaultConfig() }

// SmallTraceConfig is a fast profile for tests and examples.
func SmallTraceConfig() TraceConfig { return tracegen.SmallConfig() }

// ReadTraceCSV / WriteTraceCSV round-trip datasets in the one-session-per-row
// CSV layout of cmd/tracegen.
func ReadTraceCSV(r io.Reader) (*Dataset, error) { return trace.ReadCSV(r) }

// WriteTraceCSV writes the dataset as CSV.
func WriteTraceCSV(w io.Writer, d *Dataset) error { return trace.WriteCSV(w, d) }

// DefaultVideo returns the paper's evaluation video: a 260-second clip at
// 350/600/1000/2000/3000 kbps with 6-second chunks and a 30-second buffer.
func DefaultVideo() VideoSpec { return video.Default() }

// DefaultQoEWeights returns the paper's QoE coefficients (lambda=1,
// mu=mu_s=3000).
func DefaultQoEWeights() QoEWeights { return qoe.DefaultWeights() }

// MPC returns the MPC bitrate controller the paper pairs CS2P with (Yin et
// al.'s receding-horizon search run online, not FastMPC's precomputed table).
func MPC() Controller { return abr.MPC{} }

// BufferBased returns the BB baseline controller.
func BufferBased() Controller { return abr.BB{} }

// RateBased returns the RB baseline controller.
func RateBased() Controller { return abr.RB{} }

// Play simulates one playback of spec over the session's measured
// throughput with the given controller and predictor (nil for none),
// returning the QoE outcome.
func Play(spec VideoSpec, ctrl Controller, pred MidstreamPredictor, throughputMbps []float64, w QoEWeights) PlayResult {
	return sim.Play(spec, ctrl, pred, throughputMbps, w)
}

// NormalizedQoE plays the session and normalizes its QoE by the offline
// optimal (perfect future knowledge), the paper's n-QoE metric.
func NormalizedQoE(spec VideoSpec, ctrl Controller, pred MidstreamPredictor, throughputMbps []float64, w QoEWeights) float64 {
	return sim.NormalizedQoE(spec, ctrl, pred, throughputMbps, w)
}
