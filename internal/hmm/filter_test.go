package hmm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cs2p/internal/mathx"
)

func TestFilterPosteriorIsDistributionProperty(t *testing.T) {
	// After any sequence of Observe calls the posterior must remain a
	// probability distribution — the core safety invariant of Algorithm 1.
	m := threeStateModel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fl := NewFilter(m)
		steps := 1 + r.Intn(30)
		for s := 0; s < steps; s++ {
			// Mix plausible and wild observations.
			w := r.Float64() * 20
			if r.Intn(5) == 0 {
				w = r.Float64() * 1e6
			}
			fl.Observe(w)
			post := fl.Posterior()
			if math.Abs(mathx.Sum(post)-1) > 1e-9 {
				return false
			}
			for _, p := range post {
				if p < -1e-12 || math.IsNaN(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFilterConvergesToActiveState(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	// Feed observations squarely in state 2 (mu = 11.2).
	for i := 0; i < 10; i++ {
		fl.Observe(11.2)
	}
	post := fl.Posterior()
	if mathx.ArgMax(post) != 2 {
		t.Errorf("posterior should peak at state 2, got %v", post)
	}
	if got := fl.Predict(); math.Abs(got-11.2) > 0.5 {
		t.Errorf("Predict = %v, want ~11.2", got)
	}
}

func TestFilterTracksStateSwitch(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	for i := 0; i < 10; i++ {
		fl.Observe(1.43)
	}
	if p := fl.Predict(); math.Abs(p-1.43) > 0.3 {
		t.Fatalf("pre-switch Predict = %v", p)
	}
	// Jump to the high-throughput state; the filter should follow within
	// a few epochs.
	for i := 0; i < 5; i++ {
		fl.Observe(11.0)
	}
	if p := fl.Predict(); math.Abs(p-11.2) > 0.5 {
		t.Errorf("post-switch Predict = %v, want ~11.2", p)
	}
}

func TestFilterPredictDoesNotMutate(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	fl.Observe(2.4)
	before := fl.Posterior()
	fl.Predict()
	fl.PredictAhead(7)
	after := fl.Posterior()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Predict mutated the posterior")
		}
	}
}

func TestFilterInitialPrediction(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	// Before any observation the distribution is pi_0; argmax is state 0.
	if got := fl.Predict(); got != m.Emit[0].Mu {
		t.Errorf("initial Predict = %v, want %v", got, m.Emit[0].Mu)
	}
	if fl.Started() {
		t.Error("filter should not be started before Observe")
	}
	fl.Observe(2.4)
	if !fl.Started() {
		t.Error("filter should be started after Observe")
	}
}

func TestFilterFirstObserveSkipsTransition(t *testing.T) {
	// With pi_0 concentrated on state 0 and an observation that matches
	// state 0 exactly, the first update must keep mass on state 0 without
	// first leaking it through the transition matrix.
	m := threeStateModel()
	m.Pi = []float64{1, 0, 0}
	fl := NewFilter(m)
	fl.Observe(m.Emit[0].Mu)
	post := fl.Posterior()
	if post[0] < 0.99 {
		t.Errorf("first observation should not pre-apply transition: %v", post)
	}
}

func TestPredictAheadApproachesStationary(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	fl.Observe(11.2) // lock onto state 2
	// Far-ahead prediction should match the stationary argmax state.
	stat := m.StationaryDistribution(1000)
	wantMu := m.Emit[mathx.ArgMax(stat)].Mu
	if got := fl.PredictAhead(500); got != wantMu {
		t.Errorf("PredictAhead(500) = %v, want stationary-mode mean %v", got, wantMu)
	}
	// k < 1 behaves as k = 1.
	if fl.PredictAhead(0) != fl.Predict() {
		t.Error("PredictAhead(0) should equal Predict()")
	}
}

func TestFilterMeanRule(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	fl.SetRule(PredictMean)
	fl.Observe(2.4)
	got := fl.Predict()
	// Mean rule is a convex combination of state means.
	lo, hi := m.Emit[0].Mu, m.Emit[2].Mu
	if got < lo || got > hi {
		t.Errorf("mean-rule prediction %v outside [%v, %v]", got, lo, hi)
	}
	// It should differ from the MLE rule when mass is split.
	fl2 := NewFilter(m)
	fl2.Observe(2.4)
	if got == fl2.Predict() {
		t.Log("mean and MLE coincide here; acceptable but unusual")
	}
}

func TestFilterReset(t *testing.T) {
	m := threeStateModel()
	fl := NewFilter(m)
	fl.Observe(11.2)
	fl.Reset()
	if fl.Started() {
		t.Error("Reset should clear started")
	}
	post := fl.Posterior()
	for i := range post {
		if post[i] != m.Pi[i] {
			t.Error("Reset should restore pi_0")
		}
	}
}

func TestPredictSeriesAccuracyOnOwnData(t *testing.T) {
	// On data sampled from the model itself, the filter's midstream
	// median error should be small — the premise of the paper's §5.2.
	m := threeStateModel()
	r := rand.New(rand.NewSource(13))
	var errs []float64
	for s := 0; s < 30; s++ {
		_, obs := m.Sample(r, 100)
		preds := m.PredictSeries(obs)
		for i := 1; i < len(obs); i++ {
			if e := mathx.AbsRelErr(preds[i], obs[i]); !math.IsNaN(e) {
				errs = append(errs, e)
			}
		}
	}
	med := mathx.Median(errs)
	if med > 0.20 {
		t.Errorf("median midstream error on own data = %v, want <= 0.20", med)
	}
}

// refFilter is Algorithm 1 written the direct way, as the filter first shipped:
// every Observe pushes the posterior through P itself, every PredictAhead
// pushes from the posterior, and every density takes its own logarithm. The
// production Filter memoizes the push and hoists ln(sigma); it must match
// this reference bit for bit.
type refFilter struct {
	m       *Model
	rule    PredictionRule
	post    []float64
	started bool
}

func newRefFilter(m *Model) *refFilter {
	return &refFilter{m: m, post: append([]float64(nil), m.Pi...)}
}

// refEmission is the emission density with the floor, its terms summed in
// the fixed order -z²/2 - ln(sigma) - ln(2π)/2.
func refEmission(g mathx.Gaussian, x float64) float64 {
	z := (x - g.Mu) / g.Sigma
	p := math.Exp(-0.5*z*z - math.Log(g.Sigma) - 0.5*1.8378770664093453)
	if p < emissionFloor || math.IsNaN(p) {
		return emissionFloor
	}
	return p
}

func (f *refFilter) observe(w float64) {
	if f.started {
		next := make([]float64, len(f.post))
		f.m.Trans.VecMat(f.post, next)
		copy(f.post, next)
	}
	f.started = true
	for i := range f.post {
		f.post[i] *= refEmission(f.m.Emit[i], w)
	}
	mathx.Normalize(f.post)
}

// distAhead returns the state distribution k epochs ahead.
func (f *refFilter) distAhead(k int) []float64 {
	if k < 1 {
		k = 1
	}
	steps := k
	if !f.started {
		steps = k - 1
	}
	dist := append([]float64(nil), f.post...)
	next := make([]float64, len(dist))
	for s := 0; s < steps; s++ {
		f.m.Trans.VecMat(dist, next)
		dist, next = next, dist
	}
	return dist
}

func (f *refFilter) predictAhead(k int) float64 {
	dist := f.distAhead(k)
	if f.rule == PredictMean {
		var s float64
		for i, p := range dist {
			s += p * f.m.Emit[i].Mu
		}
		return s
	}
	return f.m.Emit[mathx.ArgMax(dist)].Mu
}

// scriptModel builds an n-state model for a filter script; with floored set,
// one state sits at the 1e-6 variance floor.
func scriptModel(r *rand.Rand, n int, floored bool) *Model {
	m := randomModel(r, n)
	if floored {
		m.Emit[r.Intn(n)].Sigma = math.Sqrt(1e-6)
	}
	return m
}

// runFilterScript drives a Filter and the reference through the same script
// and fails on the first bit that differs. Each op is one byte, some take an
// argument byte: Observe (half the opcodes; the argument picks a value near
// a state, zero, or one far enough out that every density hits
// emissionFloor), PredictAhead(1..10) with the k-step predictive weights,
// Snapshot→Restore into a fresh filter, Reset, and a PredictionRule flip.
func runFilterScript(t *testing.T, m *Model, script []byte) {
	t.Helper()
	arg := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	f, ref := NewFilter(m), newRefFilter(m)
	same := func(step int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("op %d: %s = %v (%#x), reference %v (%#x)", step, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for step := 0; len(script) > 0; step++ {
		switch op := arg(); op % 8 {
		case 0, 1, 2, 3:
			v := arg()
			var w float64
			switch v % 4 {
			case 0:
				w = 1e3 * (1 + float64(v))
			case 1:
				w = 0
			default:
				g := m.Emit[int(v)%m.N()]
				w = g.Mu + g.Sigma*(float64(v)/64-2)
			}
			f.Observe(w)
			ref.observe(w)
		case 4:
			k := 1 + int(arg())%10
			same(step, "PredictAhead", f.PredictAhead(k), ref.predictAhead(k))
			weights, _ := f.PredictiveDistribution(k)
			for i, p := range ref.distAhead(k) {
				same(step, "PredictiveDistribution weight", weights[i], p)
			}
		case 5:
			g := NewFilter(m)
			g.SetRule(f.rule)
			if err := g.Restore(f.Snapshot()); err != nil {
				t.Fatalf("op %d: restore: %v", step, err)
			}
			f = g
		case 6:
			f.Reset()
			ref = &refFilter{m: m, rule: ref.rule, post: append([]float64(nil), m.Pi...)}
		case 7:
			ref.rule = 1 - ref.rule
			f.SetRule(ref.rule)
		}
		if f.Started() != ref.started {
			t.Fatalf("op %d: Started = %v, reference %v", step, f.Started(), ref.started)
		}
		for i, p := range f.Posterior() {
			same(step, "posterior entry", p, ref.post[i])
		}
		same(step, "Predict", f.Predict(), ref.predictAhead(1))
	}
}

// TestFilterMatchesReferenceProperty pins the production filter to the
// reference across random models (1 to 8 states, half of them with a state
// at the variance floor) and random scripts.
func TestFilterMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20261015))
	for trial := 0; trial < 400; trial++ {
		m := scriptModel(r, 1+trial%8, trial%2 == 0)
		script := make([]byte, 20+r.Intn(200))
		r.Read(script)
		runFilterScript(t, m, script)
	}
}

func FuzzFilterMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), false, []byte{0, 9, 4, 0, 0, 0, 4, 9, 5, 0, 13, 4, 1})
	f.Add(int64(2), uint8(1), true, []byte{1, 4, 4, 3, 6, 4, 2, 1, 200, 7, 4, 5})
	f.Add(int64(3), uint8(8), true, []byte{5, 0, 4, 4, 6, 5, 3, 17, 7, 2, 66, 4, 9})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, floored bool, script []byte) {
		r := rand.New(rand.NewSource(seed))
		runFilterScript(t, scriptModel(r, 1+int(n)%8, floored), script)
	})
}

// A session start builds one filter: the struct and one backing array.
// The per-epoch step allocates nothing.
func TestFilterAllocs(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(1)), 6)
	if got := testing.AllocsPerRun(100, func() { sinkFilter = NewFilter(m) }); got != 2 {
		t.Errorf("NewFilter allocates %v times, want 2", got)
	}
	f := NewFilter(m)
	if got := testing.AllocsPerRun(100, func() {
		f.Observe(m.Emit[0].Mu)
		sink = f.PredictAhead(1)
	}); got != 0 {
		t.Errorf("Observe+PredictAhead(1) allocates %v times, want 0", got)
	}
}

var (
	sink       float64
	sinkFilter *Filter
)

// BenchmarkFilterStep times one serving epoch: Observe, then the 1-step
// prediction, on a 6-state model.
func BenchmarkFilterStep(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := randomModel(r, 6)
	_, obs := m.Sample(r, 64)
	f := NewFilter(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(obs[i%len(obs)])
		sink = f.PredictAhead(1)
	}
}

func TestSelectStateCount(t *testing.T) {
	truth := threeStateModel()
	seqs := sampleSequences(truth, 31, 24, 80)
	cfg := DefaultTrainConfig()
	cfg.MaxIters = 20
	best, score, err := SelectStateCount(seqs, []int{1, 3, 8}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best == 1 {
		t.Errorf("1 state should not win on 3-state data (got N=%d, err=%v)", best, score)
	}
	if score < 0 || math.IsNaN(score) {
		t.Errorf("score = %v", score)
	}
}

func TestSelectStateCountErrors(t *testing.T) {
	cfg := DefaultTrainConfig()
	if _, _, err := SelectStateCount(nil, nil, 4, cfg); err == nil {
		t.Error("no candidates should fail")
	}
	if _, _, err := SelectStateCount([][]float64{{1, 2}}, []int{2}, 1, cfg); err == nil {
		t.Error("folds < 2 should fail")
	}
	if _, _, err := SelectStateCount([][]float64{{1, 2}}, []int{2}, 4, cfg); err == nil {
		t.Error("too few sequences should fail")
	}
}
