// The JSON v1 codec of /v1/predict and /v1/session/start, both ends, without
// reflection. The scanners take only the canonical form — the struct's own
// lower-case keys, escape-free ASCII strings, JSON numbers — and decline
// anything else (ok = false), whereupon the caller hands the same bytes to
// encoding/json: the accepted language and every error stay encoding/json's.
// The encoders append encoding/json's bytes, float format included, and
// decline what it refuses (NaN, infinities) and features.extra.
// jsoncodec_test.go fuzzes both against encoding/json.
package httpapi

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"cs2p/internal/engine"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// jsonScan is a cursor over one JSON document.
type jsonScan struct {
	b []byte
	i int
}

// peek skips whitespace and returns the byte that follows, 0 at the end.
func (s *jsonScan) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// skip consumes whitespace and then lit, if lit is what follows.
func (s *jsonScan) skip(lit string) bool {
	s.peek()
	ok := len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit
	if ok {
		s.i += len(lit)
	}
	return ok
}

// object walks one object, calling member with each key and the cursor on
// its value; a duplicate key reaches member again (last wins, as in
// encoding/json). document requires the object to be all there is.
func (s *jsonScan) object(member func(key []byte) bool) bool {
	for open := "{"; ; open = "," {
		if !s.skip(open) {
			return open == "," && s.skip("}")
		}
		if open == "{" && s.skip("}") {
			return true
		}
		key, ok := s.bytes()
		if !ok || !s.skip(":") || !member(key) {
			return false
		}
	}
}

func (s *jsonScan) document(member func(key []byte) bool) bool {
	return s.object(member) && s.peek() == 0 && s.i == len(s.b)
}

// bytes consumes a string of escape-free ASCII, returned aliasing the document.
func (s *jsonScan) bytes() ([]byte, bool) {
	if !s.skip(`"`) {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\', c < 0x20, c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number consumes a JSON number and returns its text, nil if what follows is
// not one (json.Valid is the grammar: no '+', leading zero or bare point).
func (s *jsonScan) number() []byte {
	s.peek()
	start := s.i
	for s.i < len(s.b) && strings.IndexByte("+-.0123456789eE", s.b[s.i]) >= 0 {
		s.i++
	}
	if !json.Valid(s.b[start:s.i]) {
		return nil
	}
	return s.b[start:s.i]
}

// The field scanners: true when key is name and the value scans into dst.
// They parse with the strconv calls encoding/json makes, so a value out of
// range declines here and is refused there.
func (s *jsonScan) str(key []byte, name string, dst *string) bool {
	if string(key) != name {
		return false
	}
	b, ok := s.bytes()
	*dst = string(b)
	return ok
}

func (s *jsonScan) float(key []byte, name string, dst *float64) bool {
	if string(key) != name {
		return false
	}
	f, err := strconv.ParseFloat(string(s.number()), 64)
	*dst = f
	return err == nil
}

func scanInt[T int | int64](s *jsonScan, key []byte, name string, dst *T) bool {
	if string(key) != name {
		return false
	}
	n, err := strconv.ParseInt(string(s.number()), 10, 64) // a fraction or exponent fails here, as there
	*dst = T(n)
	return err == nil && int64(T(n)) == n
}

// scanPredictRequest decodes a PredictRequest straight into the op it
// describes; the session id aliases b.
func scanPredictRequest(b []byte) (op wire.Op, ok bool) {
	s := jsonScan{b: b}
	ok = s.document(func(key []byte) bool {
		switch string(key) {
		case "session_id":
			id, ok := s.bytes()
			op.SessionID = id
			return ok
		case "observed_mbps":
			if op.ObservedMbps, op.HasObserve = 0, !s.skip("null"); !op.HasObserve {
				return true
			}
		}
		return s.float(key, "observed_mbps", &op.ObservedMbps) || scanInt(&s, key, "horizon", &op.Horizon)
	})
	return op, ok
}

func scanStartRequest(b []byte) (r StartRequest, ok bool) {
	s, f := jsonScan{b: b}, &r.Features
	ok = s.document(func(key []byte) bool {
		return s.str(key, "session_id", &r.SessionID) || scanInt(&s, key, "start_unix", &r.StartUnix) ||
			string(key) == "features" && s.object(func(key []byte) bool {
				return s.str(key, "client_ip", &f.ClientIP) || s.str(key, "isp", &f.ISP) || s.str(key, "as", &f.AS) ||
					s.str(key, "province", &f.Province) || s.str(key, "city", &f.City) || s.str(key, "server", &f.Server)
			})
	})
	return r, ok
}

func scanPredictResponse(b []byte) (r PredictResponse, ok bool) {
	s := jsonScan{b: b}
	ok = s.document(func(key []byte) bool { return s.float(key, "prediction_mbps", &r.PredictionMbps) })
	return r, ok
}

func scanStartResponse(b []byte) (r engine.StartResponse, ok bool) {
	s := jsonScan{b: b}
	ok = s.document(func(key []byte) bool {
		return s.float(key, "initial_prediction_mbps", &r.InitialPredictionMbps) || s.str(key, "cluster_id", &r.ClusterID) ||
			s.float(key, "rebuffer_estimate_sec", &r.RebufferEstimateSec) || scanInt(&s, key, "suggested_initial_level", &r.SuggestedInitialLevel) ||
			s.float(key, "suggested_initial_kbps", &r.SuggestedInitialKbps)
	})
	return r, ok
}

// jsonAppend builds one document; ok turns false, and stays false, at the
// first value encoding/json would refuse.
type jsonAppend struct {
	b  []byte
	ok bool
}

// float appends f in encoding/json's format: the shortest digits that
// round-trip, 'f' unless the exponent is below -6 or from 21, a one-digit
// negative exponent without its leading zero. NaN and infinities decline.
func (a *jsonAppend) float(key string, f float64) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.ok = a.ok && !math.IsNaN(f) && !math.IsInf(f, 0)
	a.b = strconv.AppendFloat(append(a.b, key...), f, format, -1, 64)
	if n := len(a.b); format == 'e' && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b = append(a.b[:n-2], a.b[n-1])
	}
}

func (a *jsonAppend) int(key string, n int64) { a.b = strconv.AppendInt(append(a.b, key...), n, 10) }

// string appends v quoted; anything encoding/json would escape (a cluster id
// joins feature values with 0x1f) or might is left to it, one string at a time.
func (a *jsonAppend) string(key, v string) {
	a.b = append(a.b, key...)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(v) // cannot fail for a string
			a.b = append(a.b, q...)
			return
		}
	}
	a.b = append(append(append(a.b, '"'), v...), '"')
}

// Responses end as json.Encoder ends them, with a newline; requests as
// json.Marshal does, without.
func appendPredictResponse(b []byte, pred float64) ([]byte, bool) {
	a := jsonAppend{b, true}
	a.float(`{"prediction_mbps":`, pred)
	return append(a.b, "}\n"...), a.ok
}

func appendStartResponse(b []byte, r engine.StartResponse) ([]byte, bool) {
	a := jsonAppend{b, true}
	a.float(`{"initial_prediction_mbps":`, r.InitialPredictionMbps)
	a.string(`,"cluster_id":`, r.ClusterID)
	a.float(`,"rebuffer_estimate_sec":`, r.RebufferEstimateSec)
	a.int(`,"suggested_initial_level":`, int64(r.SuggestedInitialLevel))
	a.float(`,"suggested_initial_kbps":`, r.SuggestedInitialKbps)
	return append(a.b, "}\n"...), a.ok
}

// appendPredictRequest is json.Marshal of a PredictRequest whose
// observed_mbps points at observed when hasObserve, and is nil otherwise.
func appendPredictRequest(b []byte, id string, observed float64, hasObserve bool, horizon int) ([]byte, bool) {
	a := jsonAppend{b, true}
	a.string(`{"session_id":`, id)
	if hasObserve {
		a.float(`,"observed_mbps":`, observed)
	} else {
		a.b = append(a.b, `,"observed_mbps":null`...)
	}
	if horizon != 0 {
		a.int(`,"horizon":`, int64(horizon))
	}
	return append(a.b, '}'), a.ok
}

func appendStartRequest(b []byte, id string, f trace.Features, startUnix int64) ([]byte, bool) {
	a := jsonAppend{b, len(f.Extra) == 0}
	a.string(`{"session_id":`, id)
	a.string(`,"features":{"client_ip":`, f.ClientIP)
	a.string(`,"isp":`, f.ISP)
	a.string(`,"as":`, f.AS)
	a.string(`,"province":`, f.Province)
	a.string(`,"city":`, f.City)
	a.string(`,"server":`, f.Server)
	a.int(`},"start_unix":`, startUnix)
	return append(a.b, '}'), a.ok
}
