package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fixedReport builds a fully-populated report from pinned numbers — the
// golden-shape fixture.
func fixedReport() Report {
	run := RunReport{
		Name:              "direct",
		Mode:              "constant",
		Wire:              "json",
		DurationSeconds:   30,
		Sessions:          600,
		Ops:               6600,
		Errors:            3,
		MaxDispatchLateMs: 1.25,
		IntendedLatency:   LatencySummary{P50Ms: 1.1, P99Ms: 8.4, P999Ms: 15.2, MaxMs: 21.7},
		ServiceLatency:    LatencySummary{P50Ms: 0.9, P99Ms: 4.2, P999Ms: 7.8, MaxMs: 12.3},
		ErrorBudget:       ErrorBudget{Budget: 0.01, ErrorRate: 0.000454, Consumed: 0.0454},
		RequestsByPath:    map[string]int64{"/session/start": 600, "/session/observe": 5400, "/session/log": 600},
	}
	run.Capacity = &CapacityReport{
		MaxSustainableRPS: 48,
		SLOP99Ms:          1000,
		Trials: []TrialReport{
			{RPS: 20, Sustainable: true, IntendedP99: 6.1, ErrorRate: 0},
			{RPS: 40, Sustainable: true, IntendedP99: 9.7, ErrorRate: 0},
			{RPS: 80, Sustainable: false, IntendedP99: 1400, ErrorRate: 0.02},
			{RPS: 60, Sustainable: false, IntendedP99: 1100, ErrorRate: 0.004},
			{RPS: 50, Sustainable: false, IntendedP99: 1020, ErrorRate: 0.001},
			{RPS: 45, Sustainable: true, IntendedP99: 400, ErrorRate: 0},
			{RPS: 48, Sustainable: true, IntendedP99: 700, ErrorRate: 0},
		},
	}
	run.Soak = &SoakSummary{
		SessionsBefore: 0, SessionsAfter: 0,
		StartedDelta: 300, EndedDelta: 300, LogEvictionsDelta: 292,
		HeapBeforeBytes: 7340032, HeapAfterBytes: 7602176,
		GoroutinesBefore: 12, GoroutinesAfter: 12,
		Flat: true,
	}
	return NewReport(run)
}

// TestReportGoldenShape pins BENCH_load.json byte for byte. If this fails
// because the schema deliberately changed, regenerate the golden
// (UPDATE_GOLDEN=1 go test -run TestReportGoldenShape) AND bump
// ReportSchemaVersion.
func TestReportGoldenShape(t *testing.T) {
	got, err := fixedReport().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bench_load_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (set UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCH_load.json shape drifted from golden.\nThis is a schema change: bump "+
			"ReportSchemaVersion and regenerate with UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The golden document must round-trip through the strict parser.
	r, err := ParseReport(want)
	if err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	if len(r.Runs) != 1 || r.Runs[0].Capacity.MaxSustainableRPS != 48 {
		t.Fatalf("golden round-trip lost data: %+v", r)
	}
}

func TestParseReportRejectsCorruption(t *testing.T) {
	valid, err := fixedReport().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(from, to string) []byte {
		s := strings.Replace(string(valid), from, to, 1)
		if s == string(valid) {
			t.Fatalf("corruption %q -> %q did not apply", from, to)
		}
		return []byte(s)
	}
	cases := []struct {
		name string
		doc  []byte
	}{
		{"empty", []byte("")},
		{"not json", []byte("schema_version: 1\n")},
		{"trailing data", append(append([]byte{}, valid...), []byte("{}")...)},
		{"trailing brace", append(append([]byte{}, valid...), '}')},
		{"trailing bracket", append(append([]byte{}, valid...), []byte(" ]]]garbage")...)},
		{"unknown field", corrupt(`"schema_version"`, `"schema_verzion"`)},
		{"future schema version", corrupt(`"schema_version": 1`, `"schema_version": 2`)},
		{"no runs", []byte(`{"schema_version": 1, "generated_by": "x", "runs": []}` + "\n")},
		{"missing name", corrupt(`"name": "direct"`, `"name": ""`)},
		{"unknown mode", corrupt(`"mode": "constant"`, `"mode": "sawtooth"`)},
		{"unknown wire", corrupt(`"wire": "json"`, `"wire": "grpc"`)},
		{"errors exceed ops", corrupt(`"errors": 3`, `"errors": 7000`)},
		{"error rate out of range", corrupt(`"error_rate": 0.000454`, `"error_rate": 1.5`)},
		{"non-monotone quantiles", corrupt(`"p999_ms": 15.2`, `"p999_ms": 0.5`)},
		{"negative capacity", corrupt(`"max_sustainable_rps": 48`, `"max_sustainable_rps": -1`)},
	}
	for _, tc := range cases {
		if _, err := ParseReport(tc.doc); err == nil {
			t.Errorf("%s: corrupted document accepted", tc.name)
		}
	}
	// Sanity: the uncorrupted document still parses.
	if _, err := ParseReport(valid); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestReportWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	rep := fixedReport()
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), "}\n") {
		t.Fatal("report file missing trailing newline")
	}
	got, err := ParseReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.GeneratedBy != "cs2p-loadgen" || got.Runs[0].Ops != 6600 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestBuildRunReport(t *testing.T) {
	stats := &Stats{
		Sessions: 5, Ops: 50, Errors: 1, ErrorRate: 0.02,
		MaxDispatchLate: 3 * time.Millisecond,
		IntendedP50:     time.Millisecond, IntendedP99: 4 * time.Millisecond,
		IntendedP999: 9 * time.Millisecond, IntendedMax: 11 * time.Millisecond,
		ServiceP50: time.Millisecond, ServiceP99: 2 * time.Millisecond,
		ServiceP999: 3 * time.Millisecond, ServiceMax: 4 * time.Millisecond,
	}
	cfg := RunConfig{Profile: Profile{Mode: ModeBurst}, Duration: 2 * time.Second}
	rr := BuildRunReport("burst-run", cfg, "binary", SLO{MaxP99: time.Second, MaxErrorBudget: 0.04}, stats)
	if rr.Mode != "burst" || rr.Wire != "binary" || rr.DurationSeconds != 2 {
		t.Fatalf("header mismatch: %+v", rr)
	}
	if rr.ErrorBudget.Consumed != 0.5 {
		t.Fatalf("budget consumed %v, want 0.5 (2%% rate against 4%% budget)", rr.ErrorBudget.Consumed)
	}
	if rr.IntendedLatency.P99Ms != 4 || rr.ServiceLatency.MaxMs != 4 {
		t.Fatalf("latency conversion mismatch: %+v", rr)
	}
	if err := rr.validate(); err != nil {
		t.Fatalf("built report row invalid: %v", err)
	}
}
