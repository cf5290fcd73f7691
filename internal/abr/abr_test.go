package abr

import (
	"math"
	"math/rand"
	"testing"

	"cs2p/internal/qoe"
	"cs2p/internal/video"
)

// constPred always predicts the same throughput.
type constPred float64

func (c constPred) PredictAhead(int) float64 { return float64(c) }

func TestFixed(t *testing.T) {
	spec := video.Default()
	if got := (Fixed{Level: 2}).ChooseLevel(spec, State{}, nil); got != 2 {
		t.Errorf("Fixed = %d", got)
	}
	if got := (Fixed{Level: 99}).ChooseLevel(spec, State{}, nil); got != spec.Levels()-1 {
		t.Errorf("Fixed clamp high = %d", got)
	}
	if got := (Fixed{Level: -3}).ChooseLevel(spec, State{}, nil); got != 0 {
		t.Errorf("Fixed clamp low = %d", got)
	}
}

func TestRB(t *testing.T) {
	spec := video.Default()
	if got := (RB{}).ChooseLevel(spec, State{}, constPred(2.5)); got != 3 {
		t.Errorf("RB at 2.5 Mbps = %d, want 3 (2000 kbps)", got)
	}
	if got := (RB{Safety: 0.5}).ChooseLevel(spec, State{}, constPred(2.5)); got != 2 {
		t.Errorf("RB with 0.5 safety = %d, want 2 (1000 kbps)", got)
	}
	if got := (RB{}).ChooseLevel(spec, State{}, constPred(math.NaN())); got != 0 {
		t.Errorf("RB with NaN prediction = %d, want 0", got)
	}
}

func TestBBRegions(t *testing.T) {
	spec := video.Default()
	bb := BB{ReservoirSeconds: 5, CushionSeconds: 20}
	if got := bb.ChooseLevel(spec, State{BufferSeconds: 2}, nil); got != 0 {
		t.Errorf("BB below reservoir = %d, want 0", got)
	}
	if got := bb.ChooseLevel(spec, State{BufferSeconds: 28}, nil); got != spec.Levels()-1 {
		t.Errorf("BB above cushion = %d, want max", got)
	}
	mid := bb.ChooseLevel(spec, State{BufferSeconds: 15}, nil)
	if mid <= 0 || mid >= spec.Levels()-1 {
		t.Errorf("BB mid-ramp = %d, want interior level", mid)
	}
	// The ramp is monotone in buffer occupancy.
	prev := -1
	for buf := 0.0; buf <= 30; buf += 1 {
		lvl := bb.ChooseLevel(spec, State{BufferSeconds: buf}, nil)
		if lvl < prev {
			t.Fatalf("BB ramp not monotone at buffer %v", buf)
		}
		prev = lvl
	}
}

func TestInitialLevel(t *testing.T) {
	spec := video.Default()
	if got := InitialLevel(spec, 2.5); got != 3 {
		t.Errorf("InitialLevel(2.5) = %d", got)
	}
	if got := InitialLevel(spec, math.NaN()); got != 0 {
		t.Errorf("InitialLevel(NaN) = %d", got)
	}
	if got := InitialLevel(spec, -1); got != 0 {
		t.Errorf("InitialLevel(-1) = %d", got)
	}
}

func TestMPCPicksSustainableRate(t *testing.T) {
	spec := video.Default()
	st := State{ChunkIndex: 1, NumChunks: 44, LastLevel: 2, BufferSeconds: 20}
	// Plenty of throughput: MPC should go high.
	if got := (MPC{}).ChooseLevel(spec, st, constPred(10)); got < 3 {
		t.Errorf("MPC with 10 Mbps = %d, want >= 3", got)
	}
	// Starving: MPC should go to the bottom.
	stLow := State{ChunkIndex: 1, NumChunks: 44, LastLevel: 2, BufferSeconds: 2}
	if got := (MPC{}).ChooseLevel(spec, stLow, constPred(0.3)); got != 0 {
		t.Errorf("MPC with 0.3 Mbps and low buffer = %d, want 0", got)
	}
}

func TestMPCAvoidsRebuffer(t *testing.T) {
	spec := video.Default()
	// Buffer 4 s, throughput 1 Mbps. A 3000 kbps chunk needs 18 s — MPC
	// must not pick it; 1000 kbps (6 Mb -> 6 s download) is borderline;
	// 350/600 are safe.
	st := State{ChunkIndex: 5, NumChunks: 44, LastLevel: 4, BufferSeconds: 4}
	got := (MPC{}).ChooseLevel(spec, st, constPred(1.0))
	if got > 2 {
		t.Errorf("MPC chose level %d, risking a stall", got)
	}
}

func TestMPCHorizonTruncation(t *testing.T) {
	spec := video.Default()
	// One chunk left: horizon must truncate without panicking.
	st := State{ChunkIndex: 43, NumChunks: 44, LastLevel: 0, BufferSeconds: 10}
	got := (MPC{Horizon: 5}).ChooseLevel(spec, st, constPred(5))
	if got < 0 || got >= spec.Levels() {
		t.Errorf("level out of range: %d", got)
	}
	// Zero chunks remaining (defensive path).
	stEnd := State{ChunkIndex: 44, NumChunks: 44, LastLevel: 0, BufferSeconds: 10}
	if got := (MPC{}).ChooseLevel(spec, stEnd, constPred(5)); got != 0 {
		t.Errorf("MPC past the end = %d, want 0", got)
	}
}

func TestMPCNaNPrediction(t *testing.T) {
	spec := video.Default()
	st := State{ChunkIndex: 1, NumChunks: 44, LastLevel: 1, BufferSeconds: 10}
	got := (MPC{}).ChooseLevel(spec, st, constPred(math.NaN()))
	// The pessimistic floor should drive MPC to the lowest level.
	if got != 0 {
		t.Errorf("MPC with NaN predictions = %d, want 0", got)
	}
}

func TestOfflineOptimalConstantThroughput(t *testing.T) {
	spec := video.Default()
	n := spec.NumChunks()
	tput := make([]float64, n)
	for i := range tput {
		tput[i] = 10 // plenty for 3000 kbps (3 Mbps)
	}
	opt, path := OfflineOptimal{}.Best(spec, tput)
	if len(path) != n {
		t.Fatalf("path length = %d", len(path))
	}
	// With abundant bandwidth the optimum streams the top level after at
	// most a short warmup (the first chunk trades startup delay).
	top := 0
	for _, l := range path[1:] {
		if l == spec.Levels()-1 {
			top++
		}
	}
	if top < n-5 {
		t.Errorf("optimal path uses the top level only %d/%d times", top, n-1)
	}
	// QoE upper bound: all chunks at 3000 kbps with no penalties.
	if opt > 3000*float64(n) {
		t.Errorf("optimal QoE %v exceeds the theoretical bound", opt)
	}
	if opt < 2500*float64(n) {
		t.Errorf("optimal QoE %v implausibly low for 10 Mbps", opt)
	}
}

func TestOfflineOptimalIsUpperBoundForMPC(t *testing.T) {
	spec := video.Default()
	// A throughput trace with a dip in the middle.
	n := spec.NumChunks()
	tput := make([]float64, n)
	for i := range tput {
		if i > 15 && i < 25 {
			tput[i] = 0.5
		} else {
			tput[i] = 4
		}
	}
	opt, _ := OfflineOptimal{}.Best(spec, tput)

	// Simulate MPC with a perfect oracle and verify it cannot beat the DP.
	w := qoe.DefaultWeights()
	buffer, last := 0.0, -1
	var bits, rebuf []float64
	var startup float64
	for k := 0; k < n; k++ {
		var lvl int
		if k == 0 {
			lvl = InitialLevel(spec, tput[0])
		} else {
			lvl = (MPC{}).ChooseLevel(spec, State{ChunkIndex: k, NumChunks: n, LastLevel: last, BufferSeconds: buffer}, oracleAt{tput, k})
		}
		dl := spec.ChunkMegabits(lvl) / tput[k]
		if k == 0 {
			startup = dl
			buffer = 0
		} else if dl > buffer {
			rebuf = append(rebuf, dl-buffer)
			buffer = 0
		} else {
			buffer -= dl
			rebuf = append(rebuf, 0)
		}
		if k == 0 {
			rebuf = append(rebuf, 0)
		}
		buffer += spec.ChunkSeconds
		if buffer > spec.BufferCapSeconds {
			buffer = spec.BufferCapSeconds
		}
		bits = append(bits, spec.BitratesKbps[lvl])
		last = lvl
	}
	m := qoe.Metrics{BitratesKbps: bits, RebufferSeconds: rebuf[:len(bits)], StartupSeconds: startup}
	mpcQoE := qoe.Score(m, w)
	if mpcQoE > opt+1e-6 {
		t.Errorf("MPC achieved %v > offline optimal %v", mpcQoE, opt)
	}
	// But a perfect-prediction MPC should land close to the optimum.
	if mpcQoE < 0.75*opt {
		t.Errorf("perfect-prediction MPC (%v) far below optimal (%v)", mpcQoE, opt)
	}
}

// oracleAt exposes the true trace from position k.
type oracleAt struct {
	w []float64
	k int
}

func (o oracleAt) PredictAhead(i int) float64 {
	idx := o.k + i - 1
	if idx >= len(o.w) {
		idx = len(o.w) - 1
	}
	return o.w[idx]
}

func TestOfflineOptimalEmpty(t *testing.T) {
	spec := video.Default()
	if v, _ := (OfflineOptimal{}).Best(spec, nil); !math.IsNaN(v) {
		t.Error("empty trace should give NaN")
	}
}

// referenceChooseLevel is MPC.ChooseLevel as it stood before the table-driven
// kernel, moved here verbatim: a closure recursing over plans, one
// DownloadSeconds division per node. It is the oracle the kernel must agree
// with on every input — same visit order, same prune, same arithmetic.
func referenceChooseLevel(m MPC, spec video.Spec, st State, pred Predictor) int {
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
	preds := make([]float64, h)
	for i := range preds {
		p := pred.PredictAhead(i + 1)
		if math.IsNaN(p) || p <= 0 {
			p = 0.1 // pessimistic floor when no prediction exists
		}
		preds[i] = p
	}
	bestLevel, bestScore := 0, math.Inf(-1)
	plan := make([]int, h)
	var search func(depth int, buf float64, last int, score float64)
	search = func(depth int, buf float64, last int, score float64) {
		if score <= bestScore-float64(h-depth)*spec.BitratesKbps[spec.Levels()-1] {
			// Even earning the max per-chunk quality for the rest
			// cannot catch up; prune.
			return
		}
		if depth == h {
			if score > bestScore {
				bestScore = score
				bestLevel = plan[0]
			}
			return
		}
		for lvl := 0; lvl < spec.Levels(); lvl++ {
			plan[depth] = lvl
			dl := spec.DownloadSeconds(lvl, preds[depth])
			nbuf := buf
			rebuf := 0.0
			if dl > nbuf {
				rebuf = dl - nbuf
				nbuf = 0
			} else {
				nbuf -= dl
			}
			nbuf += spec.ChunkSeconds
			if nbuf > spec.BufferCapSeconds {
				nbuf = spec.BufferCapSeconds
			}
			s := score + spec.BitratesKbps[lvl] - w.Mu*rebuf
			if last >= 0 {
				s -= w.Lambda * math.Abs(spec.BitratesKbps[lvl]-spec.BitratesKbps[last])
			}
			search(depth+1, nbuf, lvl, s)
		}
	}
	search(0, st.BufferSeconds, st.LastLevel, 0)
	return bestLevel
}

// seqPred answers PredictAhead(i) from a fixed list (the last entry repeats).
type seqPred []float64

func (s seqPred) PredictAhead(i int) float64 {
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

// mpcCase is one randomly drawn ChooseLevel input.
type mpcCase struct {
	m    MPC
	spec video.Spec
	st   State
	pred Predictor // a seqPred, boxed once so the benchmark loop does not
}

// randomMPCCase draws an input the way playbacks produce them, plus the
// edges: LastLevel -1, fewer chunks remaining than the horizon (and none),
// NaN / zero / negative / infinite predictions, non-default weights and
// ladders, and shapes past the stack scratch (9-10 levels, horizon 9).
func randomMPCCase(r *rand.Rand) mpcCase {
	c := mpcCase{spec: video.Default()}
	switch r.Intn(10) {
	case 0: // random ladder, up to the stack limit
		c.spec.BitratesKbps = randomLadder(r, 1+r.Intn(mpcStackDim))
		c.m.Horizon = 1 + r.Intn(4)
		c.spec.ChunkSeconds = 1 + 9*r.Float64()
		c.spec.BufferCapSeconds = 5 + 55*r.Float64()
		c.spec.RequestOverheadSeconds = r.Float64()
	case 1: // ladder past the stack limit: heap scratch
		c.spec.BitratesKbps = randomLadder(r, mpcStackDim+1+r.Intn(2))
		c.m.Horizon = 1 + r.Intn(3)
	case 2: // horizon past the stack limit on a short ladder
		c.spec.BitratesKbps = randomLadder(r, 2)
		c.m.Horizon = mpcStackDim + 1
	default:
		c.m.Horizon = r.Intn(7) // 0 = the default 5
	}
	if r.Intn(4) == 0 {
		c.m.Weights = qoe.Weights{Lambda: 3 * r.Float64(), Mu: 6000 * r.Float64(), MuS: 3000}
	}
	c.st = State{
		NumChunks:     44,
		ChunkIndex:    r.Intn(46),
		LastLevel:     r.Intn(c.spec.Levels()+1) - 1,
		BufferSeconds: c.spec.BufferCapSeconds * r.Float64(),
	}
	if r.Intn(8) == 0 {
		c.st.BufferSeconds = 0
	}
	base := 0.2 + 6*r.Float64()
	pred := make(seqPred, 1+r.Intn(9))
	for i := range pred {
		switch r.Intn(40) {
		case 0:
			pred[i] = math.NaN()
		case 1:
			pred[i] = 0
		case 2:
			pred[i] = -base
		case 3:
			pred[i] = math.Inf(1)
		default:
			pred[i] = base * (0.3 + 1.4*r.Float64())
		}
	}
	c.pred = pred
	return c
}

func randomLadder(r *rand.Rand, n int) []float64 {
	l := make([]float64, n)
	b := 100 + 400*r.Float64()
	for i := range l {
		l[i] = b
		b *= 1.2 + r.Float64()
	}
	return l
}

// TestMPCKernelMatchesReference is the differential pin of the rewrite: the
// table-driven search and the closure it replaced pick the same level on
// 120k seeded random inputs.
func TestMPCKernelMatchesReference(t *testing.T) {
	n := 120000
	if testing.Short() {
		n = 5000
	}
	r := rand.New(rand.NewSource(20160822))
	for i := 0; i < n; i++ {
		c := randomMPCCase(r)
		got := c.m.ChooseLevel(c.spec, c.st, c.pred)
		want := referenceChooseLevel(c.m, c.spec, c.st, c.pred)
		if got != want {
			t.Fatalf("case %d: kernel chose %d, reference %d\nmpc=%+v\nspec=%+v\nstate=%+v\npred=%v",
				i, got, want, c.m, c.spec, c.st, c.pred)
		}
	}
}

// TestMPCTieRule pins the tie rule on exact ties. With throughput so high
// that nothing stalls, a plan's score is its bitrates minus lambda times its
// switches — integers under an integer ladder and a dyadic lambda, so equal
// scores are equal bits. (Plans with the same level multiset and the same
// total switch distance tie this way: from last=600, [600,1000,1000,1000,600]
// and [1000,1000,1000,600,600] both score 4200-800.) The winner must be the
// first plan, in ascending-level lexicographic order, among those with the
// maximal score — found here by unpruned enumeration.
func TestMPCTieRule(t *testing.T) {
	spec := video.Default()
	fast := seqPred{1e9}
	r := rand.New(rand.NewSource(7))
	tiedFirstLevels := 0
	for i := 0; i < 4000; i++ {
		m := MPC{Horizon: 1 + r.Intn(5), Weights: qoe.Weights{Lambda: []float64{0.5, 1, 2, 3}[r.Intn(4)], Mu: 3000, MuS: 3000}}
		st := State{NumChunks: 44, ChunkIndex: 1 + r.Intn(43), LastLevel: r.Intn(spec.Levels()+1) - 1, BufferSeconds: 1 + 29*r.Float64()}
		h := m.Horizon
		if rem := st.NumChunks - st.ChunkIndex; rem < h {
			h = rem
		}
		best, bestFirst, firsts := math.Inf(-1), 0, map[int]bool{}
		plan := make([]int, h)
		var walk func(d int)
		walk = func(d int) {
			if d < h {
				for plan[d] = 0; plan[d] < spec.Levels(); plan[d]++ {
					walk(d + 1)
				}
				return
			}
			score, last := 0.0, st.LastLevel
			for _, lvl := range plan {
				score += spec.BitratesKbps[lvl]
				if last >= 0 {
					score -= m.Weights.Lambda * math.Abs(spec.BitratesKbps[lvl]-spec.BitratesKbps[last])
				}
				last = lvl
			}
			if score > best {
				best, bestFirst, firsts = score, plan[0], map[int]bool{}
			}
			if score == best {
				firsts[plan[0]] = true
			}
		}
		walk(0)
		if len(firsts) > 1 {
			tiedFirstLevels++
		}
		if got := m.ChooseLevel(spec, st, fast); got != bestFirst {
			t.Fatalf("case %d (%+v, %+v): chose %d, first best plan starts at %d (tied first levels %v)",
				i, m, st, got, bestFirst, firsts)
		}
		if ref := referenceChooseLevel(m, spec, st, fast); ref != bestFirst {
			t.Fatalf("case %d: reference chose %d, enumeration %d", i, ref, bestFirst)
		}
	}
	if tiedFirstLevels < 100 {
		t.Errorf("only %d of 4000 cases had best plans tied across first levels; the tie rule is barely exercised", tiedFirstLevels)
	}
}

// TestMPCChooseLevelAllocs pins the kernel at zero allocations wherever its
// scratch fits the stack frame: the paper's 5x5, and both limits at once.
func TestMPCChooseLevelAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	wide := video.Default()
	wide.BitratesKbps = randomLadder(r, mpcStackDim)
	narrow := video.Default()
	narrow.BitratesKbps = randomLadder(r, 2)
	for _, tc := range []struct {
		name string
		m    MPC
		spec video.Spec
	}{
		{"paper-5x5", MPC{}, video.Default()},
		{"levels=8", MPC{Horizon: 3}, wide},
		{"horizon=8", MPC{Horizon: mpcStackDim}, narrow},
	} {
		var pred Predictor = seqPred{2.1, 1.7, 2.6, 0.9, 3.3}
		st := State{ChunkIndex: 3, NumChunks: 44, LastLevel: 1, BufferSeconds: 11}
		if got := testing.AllocsPerRun(100, func() { sinkLevel = tc.m.ChooseLevel(tc.spec, st, pred) }); got != 0 {
			t.Errorf("%s: %v allocs per ChooseLevel, want 0", tc.name, got)
		}
	}
}

var sinkLevel int

// BenchmarkMPCChooseLevel times one decision at the paper's shape (5 levels,
// horizon 5) over inputs drawn like a rollout's: the table-driven kernel, and
// the closure it replaced for the before/after in one binary.
func BenchmarkMPCChooseLevel(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	cases := make([]mpcCase, 512)
	for i := range cases {
		base := 0.5 + 4*r.Float64()
		pred := make(seqPred, 5)
		for j := range pred {
			pred[j] = base * (0.5 + r.Float64())
		}
		cases[i] = mpcCase{
			spec: video.Default(),
			st:   State{NumChunks: 44, ChunkIndex: 1 + r.Intn(38), LastLevel: r.Intn(5), BufferSeconds: 30 * r.Float64()},
			pred: pred,
		}
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &cases[i%len(cases)]
			sinkLevel = c.m.ChooseLevel(c.spec, c.st, c.pred)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &cases[i%len(cases)]
			sinkLevel = referenceChooseLevel(c.m, c.spec, c.st, c.pred)
		}
	})
}
