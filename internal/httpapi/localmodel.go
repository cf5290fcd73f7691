package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"

	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/trace"
)

// modelResponse is the GET /v1/model payload.
type modelResponse struct {
	ClusterID       string     `json:"cluster_id"`
	Model           *hmm.Model `json:"model"`
	InitialMedian   float64    `json:"initial_median"`
	ModelVersion    uint64     `json:"model_version"`
	ModelGeneration uint64     `json:"model_generation"`
}

// LocalPredictor is the client-side (decentralized) deployment of §5.3: the
// player downloads its cluster's model once and runs Algorithm 1 locally —
// no per-chunk round trips. It implements predict.Midstream.
type LocalPredictor struct {
	mr     modelResponse // the download: cluster, model, its served identity
	filter *hmm.Filter
	epoch  int // observations absorbed
}

// FetchLocalPredictor downloads the cluster model for the given features
// and builds the local predictor. The returned artifact is the <5 KB model
// the paper ships to clients. Repeat fetches revalidate with If-None-Match:
// when the server still serves the same model version it answers 304 and the
// predictor is rebuilt (fresh filter state) from the cached payload, so a
// player re-opening sessions between model publishes downloads nothing.
func (c *Client) FetchLocalPredictor(f trace.Features) (*LocalPredictor, error) {
	q := url.Values{}
	q.Set("ip", f.ClientIP)
	q.Set("isp", f.ISP)
	q.Set("as", f.AS)
	q.Set("province", f.Province)
	q.Set("city", f.City)
	q.Set("server", f.Server)
	key := q.Encode()
	c.modelMu.Lock()
	cached, haveCached := c.modelCache[key]
	c.modelMu.Unlock()
	status, h, reply, err := c.Get(context.Background(), "/v1/model?"+key, cached.etag, closeAfter)
	if status == http.StatusNotModified && haveCached {
		c.notMod.Add(1)
		return localPredictorFrom(cached.resp), nil
	}
	if err != nil {
		return nil, err
	}
	var mr modelResponse
	if err := json.Unmarshal(reply, &mr); err != nil {
		return nil, fmt.Errorf("httpapi client: decoding model: %w", err)
	}
	if mr.Model == nil {
		return nil, fmt.Errorf("httpapi client: server returned no model")
	}
	if err := mr.Model.Validate(); err != nil {
		return nil, fmt.Errorf("httpapi client: invalid model from server: %w", err)
	}
	c.downloads.Add(1)
	if etag := h.Get("ETag"); etag != "" {
		c.modelMu.Lock()
		if c.modelCache == nil {
			c.modelCache = make(map[string]cachedModel)
		}
		c.modelCache[key] = cachedModel{etag: etag, resp: mr}
		c.modelMu.Unlock()
	}
	return localPredictorFrom(mr), nil
}

// localPredictorFrom builds a fresh predictor (new filter state) from a
// validated model payload.
func localPredictorFrom(mr modelResponse) *LocalPredictor {
	return &LocalPredictor{mr: mr, filter: hmm.NewFilter(mr.Model)}
}

// SessionState renders the predictor as the importable state of session id:
// a server that installs it (same model) continues exactly where this filter
// stands — how a player resyncs a session that was lost or fell out of step.
func (p *LocalPredictor) SessionState(id string, f trace.Features, startUnix int64) engine.SessionState {
	st := engine.SessionState{
		Schema:          engine.SessionStateSchema,
		SessionID:       id,
		Features:        f,
		StartUnix:       startUnix,
		ModelVersion:    p.mr.ModelVersion,
		ModelGeneration: p.mr.ModelGeneration,
		ClusterID:       p.mr.ClusterID,
		Posterior:       p.filter.Posterior(),
		Started:         p.filter.Started(),
		Epoch:           p.epoch,
	}
	if next := p.Predict(); !math.IsNaN(next) {
		st.LastOneStep = &next
	}
	return st
}

// ClusterID identifies the downloaded model.
func (p *LocalPredictor) ClusterID() string { return p.mr.ClusterID }

// Predict implements predict.Midstream (Algorithm 1: cluster median before
// any observation, HMM filter afterwards).
func (p *LocalPredictor) Predict() float64 { return p.PredictAhead(1) }

// PredictAhead implements predict.Midstream.
func (p *LocalPredictor) PredictAhead(k int) float64 {
	if !p.filter.Started() {
		return p.mr.InitialMedian
	}
	return p.filter.PredictAhead(k)
}

// Observe implements predict.Midstream.
func (p *LocalPredictor) Observe(w float64) {
	p.filter.Observe(w)
	p.epoch++
}
