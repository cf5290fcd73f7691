package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ReportSchemaVersion is bumped whenever BENCH_load.json's shape changes
// incompatibly; ParseReport refuses versions it does not know, so the CI
// trend tooling fails loudly instead of misreading old runs.
const ReportSchemaVersion = 1

// Report is the whole BENCH_load.json document: one file per harness
// invocation, one RunReport per scenario (direct-server, router-fronted, a
// user-pointed target, ...).
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	GeneratedBy   string      `json:"generated_by"`
	Runs          []RunReport `json:"runs"`
}

// LatencySummary is one distribution's quantile readout, in milliseconds
// (JSON-friendly; the raw histograms live only inside the run).
type LatencySummary struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// ErrorBudget reports error pressure against the SLO's budget: Consumed is
// the fraction of the budget the observed error rate used (1.0 = at budget,
// >1 = blown).
type ErrorBudget struct {
	Budget    float64 `json:"budget"`
	ErrorRate float64 `json:"error_rate"`
	Consumed  float64 `json:"consumed"`
}

// TrialReport is one capacity-search probe.
type TrialReport struct {
	RPS         float64 `json:"rps"`
	Sustainable bool    `json:"sustainable"`
	IntendedP99 float64 `json:"intended_p99_ms"`
	ErrorRate   float64 `json:"error_rate"`
}

// CapacityReport is the binary-search outcome.
type CapacityReport struct {
	MaxSustainableRPS float64       `json:"max_sustainable_rps"`
	SLOP99Ms          float64       `json:"slo_p99_ms"`
	Trials            []TrialReport `json:"trials"`
}

// SoakSummary is the flat-process check of a sustained-churn run, from
// /metrics scrapes before and after.
type SoakSummary struct {
	SessionsBefore    float64 `json:"sessions_before"`
	SessionsAfter     float64 `json:"sessions_after"`
	StartedDelta      float64 `json:"started_delta"`
	EndedDelta        float64 `json:"ended_delta"`
	LogEvictionsDelta float64 `json:"log_evictions_delta"`
	HeapBeforeBytes   float64 `json:"heap_before_bytes"`
	HeapAfterBytes    float64 `json:"heap_after_bytes"`
	GoroutinesBefore  float64 `json:"goroutines_before"`
	GoroutinesAfter   float64 `json:"goroutines_after"`
	// Flat is the session-plane invariant: the active-session gauge
	// returned to its pre-churn baseline.
	Flat bool `json:"flat"`
}

// RunReport is one scenario's results.
type RunReport struct {
	Name              string           `json:"name"`
	Mode              string           `json:"mode"`
	Wire              string           `json:"wire"`
	DurationSeconds   float64          `json:"duration_seconds"`
	Sessions          int64            `json:"sessions"`
	Ops               int64            `json:"ops"`
	Errors            int64            `json:"errors"`
	MaxDispatchLateMs float64          `json:"max_dispatch_late_ms"`
	IntendedLatency   LatencySummary   `json:"intended_latency"`
	ServiceLatency    LatencySummary   `json:"service_latency"`
	ErrorBudget       ErrorBudget      `json:"error_budget"`
	RequestsByPath    map[string]int64 `json:"requests_by_path,omitempty"`
	Capacity          *CapacityReport  `json:"capacity,omitempty"`
	Soak              *SoakSummary     `json:"soak,omitempty"`
}

// NewReport wraps runs into a versioned document.
func NewReport(runs ...RunReport) Report {
	return Report{SchemaVersion: ReportSchemaVersion, GeneratedBy: "cs2p-loadgen", Runs: runs}
}

// latencySummary converts a Stats triple to milliseconds.
func latencySummary(p50, p99, p999, max time.Duration) LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{P50Ms: ms(p50), P99Ms: ms(p99), P999Ms: ms(p999), MaxMs: ms(max)}
}

// BuildRunReport folds one run's stats (and optional capacity/soak results)
// into the report row.
func BuildRunReport(name string, cfg RunConfig, wire string, slo SLO, stats *Stats) RunReport {
	budget := slo.MaxErrorBudget
	eb := ErrorBudget{Budget: budget, ErrorRate: stats.ErrorRate}
	if budget > 0 {
		eb.Consumed = stats.ErrorRate / budget
	}
	mode := cfg.Profile.Mode
	if mode == "" {
		mode = ModeConstant
	}
	return RunReport{
		Name:              name,
		Mode:              string(mode),
		Wire:              wire,
		DurationSeconds:   cfg.Duration.Seconds(),
		Sessions:          stats.Sessions,
		Ops:               stats.Ops,
		Errors:            stats.Errors,
		MaxDispatchLateMs: float64(stats.MaxDispatchLate) / float64(time.Millisecond),
		IntendedLatency:   latencySummary(stats.IntendedP50, stats.IntendedP99, stats.IntendedP999, stats.IntendedMax),
		ServiceLatency:    latencySummary(stats.ServiceP50, stats.ServiceP99, stats.ServiceP999, stats.ServiceMax),
		ErrorBudget:       eb,
	}
}

// BuildCapacityReport folds a search result into its report form.
func BuildCapacityReport(res CapacityResult, slo SLO) *CapacityReport {
	cr := &CapacityReport{
		MaxSustainableRPS: res.MaxSustainableRPS,
		SLOP99Ms:          float64(slo.MaxP99) / float64(time.Millisecond),
	}
	for _, t := range res.Trials {
		cr.Trials = append(cr.Trials, TrialReport{
			RPS:         t.RPS,
			Sustainable: t.Sustainable,
			IntendedP99: float64(t.Stats.IntendedP99) / float64(time.Millisecond),
			ErrorRate:   t.Stats.ErrorRate,
		})
	}
	return cr
}

// Marshal renders the report as indented JSON with a trailing newline (the
// stable on-disk form of BENCH_load.json).
func (r Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path (0644).
func (r Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("loadgen: writing report: %w", err)
	}
	return nil
}

// ParseReport decodes and validates a BENCH_load.json document with the
// same strictness contract obs.ParseText applies to scrapes: unknown
// fields, unknown schema versions, trailing garbage, and internally
// inconsistent numbers are all hard errors, so anything that trends these
// files can rely on the shape instead of defensively re-checking it.
func ParseReport(b []byte) (Report, error) {
	var r Report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Report{}, fmt.Errorf("loadgen: parsing report: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF { // More() would take a stray '}' for the end
		return Report{}, fmt.Errorf("loadgen: parsing report: trailing data after document")
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return Report{}, fmt.Errorf("loadgen: unknown report schema version %d (want %d)", r.SchemaVersion, ReportSchemaVersion)
	}
	if len(r.Runs) == 0 {
		return Report{}, fmt.Errorf("loadgen: report has no runs")
	}
	for i := range r.Runs {
		if err := r.Runs[i].validate(); err != nil {
			return Report{}, fmt.Errorf("loadgen: report run %d: %w", i, err)
		}
	}
	return r, nil
}

func (rr *RunReport) validate() error {
	if rr.Name == "" {
		return fmt.Errorf("missing name")
	}
	switch Mode(rr.Mode) {
	case ModeConstant, ModeStep, ModeSweep, ModeBurst:
	default:
		return fmt.Errorf("unknown mode %q", rr.Mode)
	}
	if rr.Wire != "json" && rr.Wire != "binary" {
		return fmt.Errorf("unknown wire %q", rr.Wire)
	}
	if rr.Sessions < 0 || rr.Ops < 0 || rr.Errors < 0 || rr.Errors > rr.Ops {
		return fmt.Errorf("inconsistent counts (sessions %d, ops %d, errors %d)", rr.Sessions, rr.Ops, rr.Errors)
	}
	if rr.ErrorBudget.ErrorRate < 0 || rr.ErrorBudget.ErrorRate > 1 {
		return fmt.Errorf("error rate %v outside [0,1]", rr.ErrorBudget.ErrorRate)
	}
	for _, l := range []struct {
		name string
		s    LatencySummary
	}{{"intended_latency", rr.IntendedLatency}, {"service_latency", rr.ServiceLatency}} {
		if l.s.P50Ms < 0 || l.s.P99Ms < l.s.P50Ms || l.s.P999Ms < l.s.P99Ms {
			return fmt.Errorf("%s quantiles not monotone (p50 %v, p99 %v, p999 %v)",
				l.name, l.s.P50Ms, l.s.P99Ms, l.s.P999Ms)
		}
	}
	if rr.Capacity != nil && rr.Capacity.MaxSustainableRPS < 0 {
		return fmt.Errorf("negative capacity estimate")
	}
	return nil
}
