package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"cs2p/internal/mathx"
	"cs2p/internal/tracegen"
)

// TestRunningMedianMatchesBatch pins the shared-definition claim: after any
// prefix of a random stream, Value() is bit-identical to mathx.Median over
// that prefix.
func TestRunningMedianMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var rm RunningMedian
		var seen []float64
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			var x float64
			switch r.Intn(4) {
			case 0:
				x = r.Float64() * 100
			case 1:
				x = float64(r.Intn(10)) // ties
			case 2:
				x = -r.Float64() * 50
			default:
				x = r.NormFloat64() * 1e6
			}
			rm.Add(x)
			seen = append(seen, x)
			want := mathx.Median(seen)
			if got := rm.Value(); got != want {
				t.Fatalf("trial %d after %d adds: running median %v, batch median %v", trial, i+1, got, want)
			}
		}
		if rm.Count() != n {
			t.Fatalf("Count() = %d, want %d", rm.Count(), n)
		}
	}
}

func TestRunningMedianEmptyAndNaN(t *testing.T) {
	var rm RunningMedian
	if !math.IsNaN(rm.Value()) {
		t.Fatalf("empty Value() = %v, want NaN", rm.Value())
	}
	rm.Add(math.NaN())
	if rm.Count() != 0 || !math.IsNaN(rm.Value()) {
		t.Fatalf("NaN add counted: count=%d value=%v", rm.Count(), rm.Value())
	}
	rm.Add(3)
	rm.Add(math.NaN())
	rm.Add(5)
	if got := rm.Value(); got != 4 {
		t.Fatalf("Value() = %v, want 4", got)
	}
}

// TestWindowMedianMatchesAggregate pins the kernel to the §5.1 reference:
// for every candidate rule and every training and held-out session of a
// tracegen population, WindowMedian over the rule's sample group — its NaN
// "too small" verdict included — equals MedianInitial(Aggregate(rule, s))
// under the MinGroupSize check.
func TestWindowMedianMatchesAggregate(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 400
	d, _ := tracegen.Generate(cfg)
	train, test := d.SplitByTime(d.Sessions[d.Len()*2/3].Start())
	ccfg := DefaultConfig()
	ccfg.MinGroupSize = 10
	ccfg.Windows = append(DefaultWindows(),
		TimeWindow{Kind: WindowHistory, Span: 30 * time.Minute},
		TimeWindow{Kind: WindowSameHour, Days: 1})
	c := New(ccfg, train)
	var buf []float64
	medians := map[WindowKind]int{}
	tooSmall := 0
	for _, rule := range c.Candidates() {
		groups := c.SampleGroups(rule.Key())
		for _, s := range d.Sessions {
			want := math.NaN()
			if agg := c.Aggregate(rule, s); len(agg) >= ccfg.MinGroupSize {
				want = MedianInitial(agg)
			}
			got := WindowMedian(groups[s.Features.Key(rule.Features)], rule.Window, s.StartUnix, ccfg.MinGroupSize, &buf)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("rule %s, session %s: WindowMedian %v, reference %v", rule, s.ID, got, want)
			}
			if math.IsNaN(got) {
				tooSmall++
			} else {
				medians[rule.Window.Kind]++
			}
		}
	}
	last := d.Sessions[d.Len()-1]
	if n := testing.AllocsPerRun(20, func() {
		WindowMedian(c.SampleGroups("")[""], TimeWindow{Kind: WindowAll}, last.StartUnix, 1, &buf)
	}); n != 0 {
		t.Errorf("WindowMedian with a reused buffer: %v allocs, want 0", n)
	}
	if test.Len() == 0 || tooSmall == 0 || medians[WindowAll] == 0 || medians[WindowHistory] == 0 || medians[WindowSameHour] == 0 {
		t.Fatalf("vacuous: %d held-out sessions, %d too-small verdicts, medians by window kind %v", test.Len(), tooSmall, medians)
	}
}

// medianCases yields random slices of every length from 1 to 65 — so both
// parities — drawn as continuous values, heavy ties, mostly zeros, and one
// repeated value.
func medianCases(seed int64, each func([]float64)) {
	r := rand.New(rand.NewSource(seed))
	for n := 1; n <= 65; n++ {
		for trial := 0; trial < 8; trial++ {
			x := make([]float64, n)
			for i := range x {
				switch trial % 4 {
				case 0:
					x[i] = r.ExpFloat64() * 3
				case 1:
					x[i] = float64(r.Intn(3))
				case 2:
					if r.Intn(4) == 0 {
						x[i] = r.Float64()
					}
				default:
					x[i] = 2.5
				}
			}
			each(x)
		}
	}
}

func TestMedianSelectMatchesMedian(t *testing.T) {
	medianCases(7, func(x []float64) {
		want := mathx.Median(x)
		if got := medianSelect(append([]float64(nil), x...)); got != want {
			t.Fatalf("medianSelect(%v) = %v, mathx.Median %v", x, got, want)
		}
	})
}

// FuzzMedianSelect checks the selection against mathx.Median on arbitrary
// NaN-free input: 8-byte IEEE values, or with ties set one small integer
// per byte.
func FuzzMedianSelect(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 0, 9}, true)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0\xff"), false)
	medianCases(11, func(x []float64) {
		if len(x) > 4 && len(x) < 64 {
			return
		}
		b := make([]byte, 0, 8*len(x))
		for _, v := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b, false)
	})
	f.Fuzz(func(t *testing.T, data []byte, ties bool) {
		var x []float64
		if ties {
			for _, b := range data {
				x = append(x, float64(b%8))
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) {
					x = append(x, v)
				}
			}
		}
		if len(x) == 0 {
			return
		}
		want := mathx.Median(x)
		if got := medianSelect(append([]float64(nil), x...)); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("medianSelect(%v) = %v, mathx.Median %v", x, got, want)
		}
	})
}
