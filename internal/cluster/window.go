// Package cluster implements CS2P's session-clustering stage (paper §5.1):
// for each group of similar sessions it searches the lattice of feature
// combinations and time windows for the aggregation rule Agg(M, s) whose
// median-throughput predictor best predicts initial throughput, with a
// minimum-group-size threshold and a global-model fallback. WindowMedian,
// Eq. 6's median over a time window of a start-sorted sample group, is the
// one implementation the search and every serving session start share.
package cluster

import (
	"fmt"
	"math"
	"time"
)

// WindowKind distinguishes the two time-window families of §5.1.
type WindowKind int

const (
	// WindowAll disables time filtering (every training session counts).
	WindowAll WindowKind = iota
	// WindowHistory keeps sessions from the last Span before the target
	// session ("last 5, 10, 30 minutes to hours").
	WindowHistory
	// WindowSameHour keeps sessions in the same hour-of-day during the
	// previous Days days ("same time of day").
	WindowSameHour
)

// TimeWindow is one candidate time range for aggregation.
type TimeWindow struct {
	Kind WindowKind
	Span time.Duration // for WindowHistory
	Days int           // for WindowSameHour
}

// Match reports whether a training session starting at candidate (unix
// seconds) falls in the window relative to a target session starting at ref.
// Sessions starting at or after ref never match: prediction may only use the
// past.
func (w TimeWindow) Match(candidate, ref int64) bool {
	if candidate >= ref || candidate < w.earliest(ref) {
		return false
	}
	return w.Kind != WindowSameHour || hourOfDay(candidate) == hourOfDay(ref)
}

// earliest is the first start time w admits for a target starting at ref
// (a same-hour window then keeps only ref's hour of day).
func (w TimeWindow) earliest(ref int64) int64 {
	var back int64
	switch w.Kind {
	case WindowHistory:
		back = int64(w.Span / time.Second)
	case WindowSameHour:
		back = int64(w.Days) * 86400
	default:
		return math.MinInt64
	}
	if from := ref - back; from <= ref || back < 0 {
		return from
	}
	return math.MinInt64 // ref - back wrapped
}

func hourOfDay(unix int64) int {
	return int((unix % 86400) / 3600)
}

// String renders the window for diagnostics and cluster IDs.
func (w TimeWindow) String() string {
	switch w.Kind {
	case WindowHistory:
		return fmt.Sprintf("hist:%s", w.Span)
	case WindowSameHour:
		return fmt.Sprintf("samehour:%dd", w.Days)
	default:
		return "all"
	}
}

// DefaultWindows is the candidate window set used by the reproduction,
// scaled to the two-day synthetic trace: full history, the last 6 and 24
// hours, and same-hour-of-day over the previous 2 days.
func DefaultWindows() []TimeWindow {
	return []TimeWindow{
		{Kind: WindowAll},
		{Kind: WindowHistory, Span: 6 * time.Hour},
		{Kind: WindowHistory, Span: 24 * time.Hour},
		{Kind: WindowSameHour, Days: 2},
	}
}
