// Package trace defines the throughput-measurement dataset model used
// throughout the CS2P reproduction: sessions, their descriptive features, and
// dataset-level statistics.
//
// A Session mirrors one record of the paper's iQiyi dataset (§3): a client
// downloaded video chunks over HTTP and recorded the average throughput of
// every 6-second epoch, together with the session features of Table 2
// (client IP, ISP, AS, province, city, server).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cs2p/internal/mathx"
)

// DefaultEpochSeconds is the paper's measurement epoch: clients report the
// average throughput observed over every 6-second period.
const DefaultEpochSeconds = 6.0

// Feature keys. These are the "candidate session features" of Table 2, plus
// the derived client-IP prefixes that the paper's last-mile baselines and
// Figure 4b use.
const (
	FeatClientIP = "ClientIP"
	FeatPrefix24 = "Prefix24" // client /24 prefix
	FeatPrefix16 = "Prefix16" // client /16 prefix
	FeatISP      = "ISP"
	FeatAS       = "AS"
	FeatProvince = "Province"
	FeatCity     = "City"
	FeatServer   = "Server"
)

// ClusterableFeatures are the feature keys the clustering algorithm (§5.1)
// enumerates combinations of. ClientIP itself is excluded — it is too sparse
// to aggregate on directly; the prefixes stand in for last-mile identity.
var ClusterableFeatures = []string{
	FeatISP, FeatAS, FeatProvince, FeatCity, FeatServer, FeatPrefix16,
}

// Features holds the descriptive attributes of a session. Extra carries
// dataset-specific additions (e.g. the FCC profile's connection technology
// and speed tier) without changing the schema.
type Features struct {
	ClientIP string            `json:"client_ip"`
	ISP      string            `json:"isp"`
	AS       string            `json:"as"`
	Province string            `json:"province"`
	City     string            `json:"city"`
	Server   string            `json:"server"`
	Extra    map[string]string `json:"extra,omitempty"`
}

// Get returns the value of the named feature, deriving prefixes from the
// client IP. Unknown names fall through to Extra; a missing feature returns
// the empty string.
func (f Features) Get(name string) string {
	switch name {
	case FeatClientIP:
		return f.ClientIP
	case FeatPrefix24:
		return ipPrefix(f.ClientIP, 3)
	case FeatPrefix16:
		return ipPrefix(f.ClientIP, 2)
	case FeatISP:
		return f.ISP
	case FeatAS:
		return f.AS
	case FeatProvince:
		return f.Province
	case FeatCity:
		return f.City
	case FeatServer:
		return f.Server
	default:
		return f.Extra[name]
	}
}

// ipPrefix keeps the first n dotted-quad octets: ipPrefix("1.2.3.4", 2) is
// "1.2". Malformed addresses are returned unchanged so they still group.
func ipPrefix(ip string, n int) string {
	parts := strings.Split(ip, ".")
	if len(parts) < n {
		return ip
	}
	return strings.Join(parts[:n], ".")
}

// Key concatenates the values of the given feature names into a cluster key.
// Sessions with equal keys match on every feature in names.
func (f Features) Key(names []string) string {
	vals := make([]string, len(names))
	for i, n := range names {
		vals[i] = f.Get(n)
	}
	return strings.Join(vals, "\x1f")
}

// Session is one video-download session: its features, its start time, and
// the measured average throughput (Mbps) of each epoch.
type Session struct {
	ID         string    `json:"id"`
	StartUnix  int64     `json:"start_unix"`
	Features   Features  `json:"features"`
	Throughput []float64 `json:"throughput_mbps"`
}

// Start returns the session start as a time.Time (UTC).
func (s *Session) Start() time.Time { return time.Unix(s.StartUnix, 0).UTC() }

// DurationSeconds returns the session length implied by its epoch count.
func (s *Session) DurationSeconds(epochSeconds float64) float64 {
	return float64(len(s.Throughput)) * epochSeconds
}

// MeanThroughput returns the session's average per-epoch throughput.
func (s *Session) MeanThroughput() float64 { return mathx.Mean(s.Throughput) }

// InitialThroughput returns the first epoch's throughput, the quantity the
// initial-bitrate predictors target. Returns 0 for an empty session.
func (s *Session) InitialThroughput() float64 {
	if len(s.Throughput) == 0 {
		return 0
	}
	return s.Throughput[0]
}

// CoefficientOfVariation returns stddev/mean of the per-epoch throughput,
// the intra-session variability measure of Observation 1.
func (s *Session) CoefficientOfVariation() float64 {
	return mathx.CoefficientOfVariation(s.Throughput)
}

// Validate reports structural problems with the session.
func (s *Session) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("trace: session has empty ID")
	}
	if len(s.Throughput) == 0 {
		return fmt.Errorf("trace: session %s has no epochs", s.ID)
	}
	for i, w := range s.Throughput {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("trace: session %s epoch %d has invalid throughput %v", s.ID, i, w)
		}
	}
	return nil
}

// Dataset is a collection of sessions sharing an epoch length.
type Dataset struct {
	EpochSeconds float64    `json:"epoch_seconds"`
	Sessions     []*Session `json:"sessions"`
}

// NewDataset creates an empty dataset with the default 6-second epoch.
func NewDataset() *Dataset {
	return &Dataset{EpochSeconds: DefaultEpochSeconds}
}

// Len returns the number of sessions.
func (d *Dataset) Len() int { return len(d.Sessions) }

// Validate checks every session.
func (d *Dataset) Validate() error {
	if d.EpochSeconds <= 0 {
		return fmt.Errorf("trace: non-positive epoch length %v", d.EpochSeconds)
	}
	for _, s := range d.Sessions {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Filter returns the sessions for which keep returns true. The returned
// dataset shares Session pointers with the receiver.
func (d *Dataset) Filter(keep func(*Session) bool) *Dataset {
	out := &Dataset{EpochSeconds: d.EpochSeconds}
	for _, s := range d.Sessions {
		if keep(s) {
			out.Sessions = append(out.Sessions, s)
		}
	}
	return out
}

// SplitByTime partitions sessions into those starting before the cut and
// those starting at/after it. The paper trains on day one and tests on day
// two (§7.1); this is the primitive behind that split.
func (d *Dataset) SplitByTime(cut time.Time) (before, after *Dataset) {
	c := cut.Unix()
	before = d.Filter(func(s *Session) bool { return s.StartUnix < c })
	after = d.Filter(func(s *Session) bool { return s.StartUnix >= c })
	return before, after
}

// GroupBy buckets sessions by the concatenated value of the given features.
func (d *Dataset) GroupBy(featureNames []string) map[string][]*Session {
	groups := make(map[string][]*Session)
	for _, s := range d.Sessions {
		k := s.Features.Key(featureNames)
		groups[k] = append(groups[k], s)
	}
	return groups
}

// AllEpochThroughputs flattens every epoch measurement in the dataset
// (the sample behind Figure 3b).
func (d *Dataset) AllEpochThroughputs() []float64 {
	n := 0
	for _, s := range d.Sessions {
		n += len(s.Throughput)
	}
	out := make([]float64, 0, n)
	for _, s := range d.Sessions {
		out = append(out, s.Throughput...)
	}
	return out
}

// Durations returns every session duration in seconds (Figure 3a).
func (d *Dataset) Durations() []float64 {
	out := make([]float64, len(d.Sessions))
	for i, s := range d.Sessions {
		out[i] = s.DurationSeconds(d.EpochSeconds)
	}
	return out
}

// Summary describes the dataset the way the paper's Table 2 does: one row
// per feature with its number of unique values, plus totals.
type Summary struct {
	Sessions     int
	Epochs       int
	EpochSeconds float64
	UniqueValues map[string]int // feature name -> distinct value count
}

// Summarize computes the Table 2 statistics for the given feature names
// (pass nil for the standard set including ClientIP).
func (d *Dataset) Summarize(featureNames []string) Summary {
	if featureNames == nil {
		featureNames = []string{
			FeatClientIP, FeatISP, FeatAS, FeatProvince, FeatCity, FeatServer,
		}
	}
	uniq := make(map[string]map[string]struct{}, len(featureNames))
	for _, f := range featureNames {
		uniq[f] = make(map[string]struct{})
	}
	epochs := 0
	for _, s := range d.Sessions {
		epochs += len(s.Throughput)
		for _, f := range featureNames {
			uniq[f][s.Features.Get(f)] = struct{}{}
		}
	}
	sum := Summary{
		Sessions:     len(d.Sessions),
		Epochs:       epochs,
		EpochSeconds: d.EpochSeconds,
		UniqueValues: make(map[string]int, len(featureNames)),
	}
	for f, set := range uniq {
		sum.UniqueValues[f] = len(set)
	}
	return sum
}

// String renders the summary as the Table 2 rows.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d epochs=%d epoch_seconds=%.0f\n", s.Sessions, s.Epochs, s.EpochSeconds)
	names := make([]string, 0, len(s.UniqueValues))
	for n := range s.UniqueValues {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "feature=%s unique=%d\n", n, s.UniqueValues[n])
	}
	return b.String()
}
