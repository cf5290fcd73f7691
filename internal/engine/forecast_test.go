package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// stressSpec is the default video on a 3x ladder: the test populations stall
// on it, so forecasts are non-zero and differ from model to model (on the
// default ladder every median is 0 and equality would prove nothing).
func stressSpec() video.Spec {
	spec := video.Default()
	for i := range spec.BitratesKbps {
		spec.BitratesKbps[i] *= 3
	}
	return spec
}

// sampler is the model surface EstimateRebuffer draws futures from.
type sampler = interface {
	Sample(r *rand.Rand, t int) ([]int, []float64)
}

// countingSampler counts the futures EstimateRebuffer draws from a model.
type countingSampler struct {
	model sampler
	n     *atomic.Int64
}

func (c countingSampler) Sample(r *rand.Rand, t int) ([]int, []float64) {
	c.n.Add(1)
	return c.model.Sample(r, t)
}

// countSamples routes the service's forecast fills through a sampler that
// counts draws (30 per rollout) until the test ends. before, when non-nil,
// runs at the top of every fill — mid-StartSession, snapshot already pinned.
func countSamples(t *testing.T, before func()) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	estimateRebuffer = func(spec video.Spec, model sampler, initialMbps float64, rollouts int, seed int64) float64 {
		if before != nil {
			before()
		}
		return EstimateRebuffer(spec, countingSampler{model, &n}, initialMbps, rollouts, seed)
	}
	t.Cleanup(func() { estimateRebuffer = EstimateRebuffer })
	return &n
}

// TestForecastMatchesDirectEstimate: every start is answered with exactly
// what a direct EstimateRebuffer call on its cluster's model gives, first
// start in the cluster or fiftieth, and the rollout runs once per cluster.
func TestForecastMatchesDirectEstimate(t *testing.T) {
	trained, data := freshService(t, 1)
	eng, spec := trained.Engine(), stressSpec()
	svc := NewService(eng, trained.cfg, spec)
	samples := countSamples(t, nil)
	want := map[string]float64{}
	for i, s := range data.Sessions {
		resp := svc.StartSession(fmt.Sprintf("direct-%d", i), s.Features, s.StartUnix)
		if _, ok := want[resp.ClusterID]; !ok {
			model, id := eng.ModelFor(s)
			if id != resp.ClusterID {
				t.Fatalf("session %d: routed to %q, ModelFor says %q", i, resp.ClusterID, id)
			}
			want[id] = EstimateRebuffer(spec, model, 0, 30, 1)
		}
		if resp.RebufferEstimateSec != want[resp.ClusterID] {
			t.Fatalf("session %d cluster %s: forecast %.17g, direct estimate %.17g",
				i, resp.ClusterID, resp.RebufferEstimateSec, want[resp.ClusterID])
		}
	}
	distinct := map[float64]bool{}
	for _, v := range want {
		distinct[v] = true
	}
	if len(want) < 2 || len(distinct) < 2 {
		t.Fatalf("sessions reached %d cluster models with %d distinct forecasts; need at least 2 of each: %v", len(want), len(distinct), want)
	}
	if got := samples.Load(); got != int64(30*len(want)) {
		t.Errorf("%d futures sampled for %d cluster models over %d starts, want 30 per model", got, len(want), data.Len())
	}
}

// TestForecastSingleFlight: 64 first starts racing in one cluster run one
// rollout between them, and /metrics tells the one miss from the 63 hits.
func TestForecastSingleFlight(t *testing.T) {
	trained, data := freshService(t, 0)
	svc := NewService(trained.Engine(), trained.cfg, stressSpec())
	svc.SetMetrics(obs.NewRegistry())
	samples := countSamples(t, nil)
	const starts = 64
	s := data.Sessions[0]
	var wg sync.WaitGroup
	gate := make(chan struct{})
	got := make([]StartResponse, starts)
	for i := 0; i < starts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			got[i] = svc.StartSession(fmt.Sprintf("race-%d", i), s.Features, s.StartUnix)
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("start %d answered %+v, start 0 %+v", i, r, got[0])
		}
	}
	if n := samples.Load(); n != 30 {
		t.Errorf("%d futures sampled across %d racing starts, want 30 (one rollout)", n, starts)
	}
	if miss, hit := svc.m.forecastMiss.Value(), svc.m.forecastHit.Value(); miss != 1 || hit != starts-1 {
		t.Errorf("forecast counter miss=%d hit=%d, want 1 and %d", miss, hit, starts-1)
	}
	if n := svc.m.forecastSeconds.Count(); n != 1 {
		t.Errorf("forecast-seconds histogram has %d observations, want 1 (the cold fill)", n)
	}
}

// TestForecastFollowsModelLifecycle: an install of a different model — by
// artifact or by engine — recomputes; a rollback serves the displaced
// generation's value without recomputing, in both directions.
func TestForecastFollowsModelLifecycle(t *testing.T) {
	spec := stressSpec()
	svc, err := NewServiceFromArtifact(lifecycleArtifact(t, 1, 1, core.HoldoutMetrics{}), core.DefaultConfig(), spec, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samples := countSamples(t, nil)
	start := func() float64 {
		return svc.StartSession("lc", trace.Features{ISP: "isp-a"}, 1700000000).RebufferEstimateSec
	}
	direct := func(mean float64) float64 {
		return EstimateRebuffer(spec, lifecycleStore(mean).Global.Model, 0, 30, 1)
	}
	f1, f2, f3 := direct(1), direct(2), direct(3)
	if f1 == f2 || f2 == f3 || f1 == f3 {
		t.Fatalf("the three models must forecast differently, got %v %v %v", f1, f2, f3)
	}
	step := func(what string, want float64, wantSamples int64) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if got := start(); got != want {
				t.Fatalf("%s: start %d forecast %.17g, want %.17g", what, i, got, want)
			}
		}
		if got := samples.Load(); got != wantSamples {
			t.Fatalf("%s: %d futures sampled so far, want %d", what, got, wantSamples)
		}
	}
	step("boot v1", f1, 30)
	if _, err := svc.InstallArtifact(lifecycleArtifact(t, 2, 2, core.HoldoutMetrics{})); err != nil {
		t.Fatal(err)
	}
	step("InstallArtifact v2", f2, 60)
	if _, err := svc.Rollback(); err != nil {
		t.Fatal(err)
	}
	step("Rollback to v1", f1, 60)
	if _, err := svc.Rollback(); err != nil {
		t.Fatal(err)
	}
	step("Rollback to v2", f2, 60)
	e3, err := core.NewEngineFromStore(lifecycleStore(3))
	if err != nil {
		t.Fatal(err)
	}
	svc.InstallEngine(e3)
	step("InstallEngine v3", f3, 90)
	if _, err := svc.Rollback(); err != nil {
		t.Fatal(err)
	}
	step("Rollback to v2 past v3", f2, 90)
}

// TestForecastPinnedAcrossPromotion: a start whose forecast fill is overtaken
// by a promotion still answers wholly from the snapshot it pinned — initial
// prediction and forecast both of the old model — and fills the old
// generation's cell, not the new one's.
func TestForecastPinnedAcrossPromotion(t *testing.T) {
	spec := stressSpec()
	svc, err := NewServiceFromArtifact(lifecycleArtifact(t, 1, 1, core.HoldoutMetrics{}), core.DefaultConfig(), spec, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f1 := EstimateRebuffer(spec, lifecycleStore(1).Global.Model, 0, 30, 1)
	f2 := EstimateRebuffer(spec, lifecycleStore(2).Global.Model, 0, 30, 1)
	promoted := false
	samples := countSamples(t, func() {
		if !promoted {
			promoted = true
			if _, err := svc.InstallArtifact(lifecycleArtifact(t, 2, 2, core.HoldoutMetrics{})); err != nil {
				t.Error(err)
			}
		}
	})
	start := func() StartResponse { return svc.StartSession("pin", trace.Features{ISP: "isp-a"}, 1700000000) }
	if r := start(); r.InitialPredictionMbps != 1 || r.RebufferEstimateSec != f1 {
		t.Fatalf("start overtaken by the promotion answered init %v forecast %.17g, want the pinned v1's 1 and %.17g",
			r.InitialPredictionMbps, r.RebufferEstimateSec, f1)
	}
	if v := svc.Snapshot().Version(); v != 2 {
		t.Fatalf("promotion did not land mid-start: serving v%d", v)
	}
	if r := start(); r.InitialPredictionMbps != 2 || r.RebufferEstimateSec != f2 {
		t.Fatalf("first start on v2 answered init %v forecast %.17g, want 2 and %.17g (v1's fill must not land in v2's cell)",
			r.InitialPredictionMbps, r.RebufferEstimateSec, f2)
	}
	if _, err := svc.Rollback(); err != nil {
		t.Fatal(err)
	}
	if r := start(); r.InitialPredictionMbps != 1 || r.RebufferEstimateSec != f1 {
		t.Fatalf("start after rollback answered init %v forecast %.17g, want 1 and %.17g", r.InitialPredictionMbps, r.RebufferEstimateSec, f1)
	}
	if got := samples.Load(); got != 60 {
		t.Errorf("%d futures sampled, want 60: one rollout per generation, none after the rollback", got)
	}
}
