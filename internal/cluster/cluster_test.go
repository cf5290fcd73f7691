package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cs2p/internal/mathx"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
)

func TestTimeWindowMatch(t *testing.T) {
	ref := int64(1000000) // arbitrary
	all := TimeWindow{Kind: WindowAll}
	if !all.Match(ref-1, ref) || all.Match(ref, ref) || all.Match(ref+5, ref) {
		t.Error("WindowAll should match any past, never present/future")
	}
	hist := TimeWindow{Kind: WindowHistory, Span: time.Hour}
	if !hist.Match(ref-3599, ref) {
		t.Error("59m59s ago should match a 1h window")
	}
	if !hist.Match(ref-3600, ref) || hist.Match(ref-3601, ref) {
		t.Error("a 1h window should reach exactly 1h back, no further")
	}
	sh := TimeWindow{Kind: WindowSameHour, Days: 2}
	if !sh.Match(ref-86400, ref) {
		t.Error("same second yesterday should match same-hour window")
	}
	if sh.Match(ref-86400-7200, ref) {
		t.Error("two hours earlier yesterday should not match")
	}
	if !sh.Match(ref-2*86400, ref) || sh.Match(ref-2*86400-1, ref) {
		t.Error("a 2-day same-hour window should reach exactly 2 days back, no further")
	}
	if sh.Match(ref-3*86400, ref) {
		t.Error("three days back exceeds the 2-day span")
	}
}

func TestWindowString(t *testing.T) {
	if s := (TimeWindow{Kind: WindowAll}).String(); s != "all" {
		t.Errorf("String = %q", s)
	}
	if s := (TimeWindow{Kind: WindowHistory, Span: 6 * time.Hour}).String(); s != "hist:6h0m0s" {
		t.Errorf("String = %q", s)
	}
	if s := (TimeWindow{Kind: WindowSameHour, Days: 2}).String(); s != "samehour:2d" {
		t.Errorf("String = %q", s)
	}
}

func TestNewFeatureSetCanonical(t *testing.T) {
	fs := NewFeatureSet([]string{"City", "ISP", "City"}, TimeWindow{Kind: WindowAll})
	if len(fs.Features) != 2 || fs.Features[0] != "City" || fs.Features[1] != "ISP" {
		t.Errorf("canonical features = %v", fs.Features)
	}
	if fs.Key() != "City+ISP" {
		t.Errorf("Key = %q", fs.Key())
	}
	g := NewFeatureSet(nil, TimeWindow{Kind: WindowAll})
	if !g.IsGlobal() || g.String() != "global|all" {
		t.Errorf("global rule = %q", g.String())
	}
}

func TestEnumerateSubsets(t *testing.T) {
	subs := EnumerateSubsets([]string{"a", "b", "c"}, -1)
	if len(subs) != 8 {
		t.Fatalf("full lattice of 3 = %d, want 8", len(subs))
	}
	subs = EnumerateSubsets([]string{"a", "b", "c", "d"}, 2)
	// 1 + 4 + 6 = 11.
	if len(subs) != 11 {
		t.Fatalf("<=2 of 4 = %d, want 11", len(subs))
	}
	if len(subs[0]) != 0 {
		t.Error("first subset should be empty (global)")
	}
}

func TestCandidatesCross(t *testing.T) {
	ws := []TimeWindow{{Kind: WindowAll}, {Kind: WindowHistory, Span: time.Hour}}
	cands := Candidates([]string{"a"}, -1, ws)
	if len(cands) != 4 { // 2 subsets x 2 windows
		t.Fatalf("candidates = %d, want 4", len(cands))
	}
}

// toyDataset builds two feature-separable populations: ISP fast (10 Mbps)
// and ISP slow (1 Mbps), with city irrelevant.
func toyDataset(n int) *trace.Dataset {
	d := trace.NewDataset()
	base := int64(1700000000)
	for i := 0; i < n; i++ {
		isp, tput := "fast", 10.0
		if i%2 == 1 {
			isp, tput = "slow", 1.0
		}
		city := fmt.Sprintf("c%d", i%3) // 3 cities so city does not encode ISP parity
		d.Sessions = append(d.Sessions, &trace.Session{
			ID:        fmt.Sprintf("s%04d", i),
			StartUnix: base + int64(i)*60,
			Features: trace.Features{
				ClientIP: "9.9.9.9", ISP: isp, AS: "as", Province: "p",
				City: city, Server: "srv",
			},
			Throughput: []float64{tput, tput, tput},
		})
	}
	return d
}

func TestAggregateFiltersFeatureAndTime(t *testing.T) {
	d := toyDataset(100)
	cfg := DefaultConfig()
	cfg.MinGroupSize = 5
	c := New(cfg, d)
	target := d.Sessions[99] // slow ISP, latest
	rule := NewFeatureSet([]string{trace.FeatISP}, TimeWindow{Kind: WindowAll})
	agg := c.Aggregate(rule, target)
	if len(agg) != 49 { // 49 earlier slow sessions (self excluded by time cut)
		t.Fatalf("Agg size = %d, want 49", len(agg))
	}
	for _, s := range agg {
		if s.Features.ISP != "slow" {
			t.Fatal("aggregated session from wrong ISP")
		}
		if s.StartUnix >= target.StartUnix {
			t.Fatal("aggregated session from the future")
		}
	}
	// A one-hour window keeps only the last ~60 sessions across both ISPs
	// => ~30 slow ones.
	hourRule := NewFeatureSet([]string{trace.FeatISP}, TimeWindow{Kind: WindowHistory, Span: time.Hour})
	aggH := c.Aggregate(hourRule, target)
	if len(aggH) >= len(agg) || len(aggH) == 0 {
		t.Errorf("windowed Agg size = %d, want in (0, %d)", len(aggH), len(agg))
	}
}

func TestMedianInitial(t *testing.T) {
	d := toyDataset(10)
	med := MedianInitial(d.Sessions)
	if math.Abs(med-5.5) > 1e-9 {
		t.Errorf("MedianInitial = %v, want 5.5 (mix of 1 and 10)", med)
	}
	if !math.IsNaN(MedianInitial(nil)) {
		t.Error("empty aggregation should give NaN")
	}
}

func TestSelectPicksInformativeFeature(t *testing.T) {
	d := toyDataset(400)
	cfg := DefaultConfig()
	cfg.MinGroupSize = 10
	c := New(cfg, d)
	c.Select()
	// Any cell's chosen rule must include ISP (the only informative
	// feature) and must predict well.
	target := d.Sessions[399]
	rule, id := c.ClusterFor(target)
	found := false
	for _, f := range rule.Features {
		if f == trace.FeatISP {
			found = true
		}
	}
	if !found {
		t.Errorf("chosen rule %v should include ISP", rule)
	}
	if id == "" {
		t.Error("empty cluster id")
	}
	agg := c.Aggregate(rule, target)
	med := MedianInitial(agg)
	if e := mathx.AbsRelErr(med, target.InitialThroughput()); e > 0.05 {
		t.Errorf("selected rule predicts with error %v, want ~0", e)
	}
}

func TestClusterForUnseenCellFallsBack(t *testing.T) {
	d := toyDataset(100)
	cfg := DefaultConfig()
	cfg.MinGroupSize = 10
	c := New(cfg, d)
	c.Select()
	alien := &trace.Session{
		ID: "alien", StartUnix: 1800000000,
		Features:   trace.Features{ClientIP: "1.1.1.1", ISP: "other", City: "nowhere", Server: "x"},
		Throughput: []float64{5},
	}
	rule, _ := c.ClusterFor(alien)
	if !rule.IsGlobal() {
		t.Errorf("unseen cell should fall back to global, got %v", rule)
	}
	if c.GlobalRule().String() != "global|all" {
		t.Error("global rule mismatch")
	}
}

func TestGlobalFraction(t *testing.T) {
	d := toyDataset(400)
	cfg := DefaultConfig()
	cfg.MinGroupSize = 10
	c := New(cfg, d)
	if got := c.GlobalFraction(); got != 1 {
		t.Errorf("before Select, GlobalFraction = %v, want 1", got)
	}
	c.Select()
	// With clean separable data almost no cell should need the fallback.
	if got := c.GlobalFraction(); got > 0.5 {
		t.Errorf("GlobalFraction = %v, want <= 0.5", got)
	}
}

func TestMembersByRule(t *testing.T) {
	d := toyDataset(50)
	c := New(DefaultConfig(), d)
	rule := NewFeatureSet([]string{trace.FeatISP}, TimeWindow{Kind: WindowAll})
	members := c.MembersByRule(rule, d.Sessions[0]) // fast ISP
	if len(members) != 25 {
		t.Errorf("members = %d, want 25", len(members))
	}
}

func TestSelectOnSyntheticTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering on synthetic trace is slow for -short")
	}
	d, _ := tracegen.Generate(tracegen.SmallConfig())
	cfg := DefaultConfig()
	cfg.MinGroupSize = 10
	c := New(cfg, d)
	c.Select()
	// Selected rules should beat the global rule on initial prediction.
	var selErrs, globErrs []float64
	glob := c.GlobalRule()
	for i := len(d.Sessions) - 200; i < len(d.Sessions); i++ {
		s := d.Sessions[i]
		rule, _ := c.ClusterFor(s)
		if agg := c.Aggregate(rule, s); len(agg) > 0 {
			if e := mathx.AbsRelErr(MedianInitial(agg), s.InitialThroughput()); !math.IsNaN(e) {
				selErrs = append(selErrs, e)
			}
		}
		if agg := c.Aggregate(glob, s); len(agg) > 0 {
			if e := mathx.AbsRelErr(MedianInitial(agg), s.InitialThroughput()); !math.IsNaN(e) {
				globErrs = append(globErrs, e)
			}
		}
	}
	sel, gl := mathx.Median(selErrs), mathx.Median(globErrs)
	if sel >= gl {
		t.Errorf("selected rules (median err %v) should beat global (%v)", sel, gl)
	}
}

func TestRelativeInformationGain(t *testing.T) {
	d := toyDataset(200)
	rigISP := RelativeInformationGain(d.Sessions, trace.FeatISP, 10)
	rigCity := RelativeInformationGain(d.Sessions, trace.FeatCity, 10)
	if rigISP < 0.9 {
		t.Errorf("RIG(ISP) = %v, want ~1 (fully determines throughput)", rigISP)
	}
	if rigCity > 0.2 {
		t.Errorf("RIG(City) = %v, want ~0 (uninformative)", rigCity)
	}
	if RelativeInformationGain(nil, trace.FeatISP, 10) != 0 {
		t.Error("empty input should give 0")
	}
	// Constant throughput: H(Y)=0 -> RIG 0.
	constant := toyDataset(10).Filter(func(s *trace.Session) bool { return s.Features.ISP == "fast" })
	if RelativeInformationGain(constant.Sessions, trace.FeatISP, 10) != 0 {
		t.Error("constant target should give 0")
	}
}

func TestEntropy(t *testing.T) {
	if e := entropy([]float64{1, 1}); math.Abs(e-math.Log(2)) > 1e-12 {
		t.Errorf("entropy uniform-2 = %v, want ln2", e)
	}
	if entropy([]float64{5, 0}) != 0 {
		t.Error("deterministic distribution should have zero entropy")
	}
	if entropy(nil) != 0 {
		t.Error("empty counts should have zero entropy")
	}
}
