package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/registry"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// parityOp is one per-chunk op as every codec can express it. A NaN
// observation has no JSON spelling; the JSON codec sends the bare token,
// which is rejected one step earlier (malformed body) with the same 400.
type parityOp struct {
	name     string
	id       string // "" = the cell's own registered session
	observed float64
	observe  bool
	horizon  int
	want     int // HTTP status of a single op; a batch answers the code codeStatus maps to it
}

// codeStatus is the documented result-code → HTTP-status table (DESIGN.md,
// "per-chunk op pipeline"), restated so a batch op's code can be compared
// with the status the single-op codecs answer.
var codeStatus = map[uint8]int{
	wire.OpOK:             http.StatusOK,
	wire.OpUnknownSession: http.StatusNotFound,
	wire.OpInvalid:        http.StatusBadRequest,
	wire.OpUnavailable:    http.StatusBadGateway,
}

// parityCodecs drive one op through one encoding and report the status it
// resolved to plus the prediction.
var parityCodecs = []struct {
	name string
	do   func(t *testing.T, base, id string, op parityOp) (int, float64)
}{
	{"json", func(t *testing.T, base, id string, op parityOp) (int, float64) {
		body := fmt.Sprintf(`{"session_id":%q,"horizon":%d`, id, op.horizon)
		if op.observe {
			body += fmt.Sprintf(`,"observed_mbps":%v`, op.observed)
		}
		status, raw := parityPost(t, base+"/v1/predict", "application/json", []byte(body+"}"))
		var resp httpapi.PredictResponse
		if status == http.StatusOK {
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("json reply %q: %v", raw, err)
			}
		}
		return status, resp.PredictionMbps
	}},
	{"binary", func(t *testing.T, base, id string, op parityOp) (int, float64) {
		path := "/v2/predict"
		if op.observe {
			path = "/v2/observe"
		}
		status, raw := parityPost(t, base+path, wire.ContentType, wire.AppendOp(nil, op.wire(id)))
		f, err := wire.DecodeFrame(raw, wire.DefaultLimits())
		if err != nil {
			t.Fatalf("binary reply: %v", err)
		}
		if status != http.StatusOK {
			if es, _, err := wire.DecodeError(f.Payload); err != nil || es != status {
				t.Fatalf("error frame status %d (%v), HTTP status %d", es, err, status)
			}
			return status, 0
		}
		pred, err := wire.DecodePrediction(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return status, pred
	}},
	{"batch-of-one", func(t *testing.T, base, id string, op parityOp) (int, float64) {
		status, raw := parityPost(t, base+"/v2/batch", wire.ContentType, wire.AppendBatch(nil, []wire.Op{op.wire(id)}))
		if status != http.StatusOK {
			t.Fatalf("batch frame answered %d; per-op failures must be codes", status)
		}
		f, err := wire.DecodeFrame(raw, wire.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := wire.DecodeBatchResult(f.Payload, wire.DefaultLimits(), nil)
		if err != nil || len(res) != 1 {
			t.Fatalf("batch reply: %v (%d results)", err, len(res))
		}
		return codeStatus[res[0].Code], res[0].PredictionMbps
	}},
}

func (op parityOp) wire(id string) wire.Op {
	return wire.Op{SessionID: []byte(id), ObservedMbps: op.observed, Horizon: op.horizon, HasObserve: op.observe}
}

func parityPost(t *testing.T, url, ct string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestOpPipelineParity drives the same ops through every codec (JSON v1,
// binary single op, binary batch of one) against both backends (one
// engine.Service server, a router over two replicas) and requires the same
// status in every cell and bit-identical predictions across all six: the
// per-chunk op is one pipeline, and codec and topology are transparent to
// it. The last row is the one only a routing tier can produce — every
// replica out — and pins 502 / result code 3 under all three codecs.
func TestOpPipelineParity(t *testing.T) {
	ops := []parityOp{
		{name: "ok observe", observed: 2.5, observe: true, horizon: 1, want: http.StatusOK},
		{name: "ok predict", horizon: 3, want: http.StatusOK},
		{name: "unknown session", id: "nobody", observed: 2.5, observe: true, horizon: 1, want: http.StatusNotFound},
		{name: "NaN observation", observed: math.NaN(), observe: true, horizon: 1, want: http.StatusBadRequest},
		{name: "negative observation", observed: -1, observe: true, horizon: 1, want: http.StatusBadRequest},
		{name: "observation over MaxObservedMbps", observed: httpapi.MaxObservedMbps * 2, observe: true, horizon: 1, want: http.StatusBadRequest},
		{name: "horizon over MaxHorizon", horizon: httpapi.MaxHorizon + 1, want: http.StatusBadRequest},
		// An accepted op after the rejected ones: none of them touched
		// filter state, on any backend.
		{name: "ok observe after rejects", observed: 3.5, observe: true, horizon: 2, want: http.StatusOK},
	}

	cluster := newRealCluster(t, 2, nil)
	regy, err := registry.Open(chaosRegDir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := regy.Latest()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := engine.NewServiceFromArtifact(art, chaosCfg, video.Default(), engine.ServiceOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct := httpapi.NewServer(svc, nil)
	direct.SetLogf(func(string, ...any) {})
	directTS := httptest.NewServer(direct.Handler())
	defer directTS.Close()
	backends := []struct{ name, base string }{{"direct", directTS.URL}, {"routed", cluster.front.URL}}

	s := chaosTest.Sessions[0]
	cellID := func(backend, codec string) string { return "parity-" + backend + "-" + codec }
	for _, b := range backends {
		for _, codec := range parityCodecs {
			if _, err := httpapi.NewClient(b.base).StartSession(cellID(b.name, codec.name), s.Features, s.StartUnix); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range ops {
		var ref uint64
		first := true
		for _, b := range backends {
			for _, codec := range parityCodecs {
				id := op.id
				if id == "" {
					id = cellID(b.name, codec.name)
				}
				status, pred := codec.do(t, b.base, id, op)
				if status != op.want {
					t.Errorf("%s / %s / %s: status %d, want %d", op.name, b.name, codec.name, status, op.want)
					continue
				}
				if status != http.StatusOK {
					continue
				}
				if bits := math.Float64bits(pred); first {
					ref, first = bits, false
				} else if bits != ref {
					t.Errorf("%s / %s / %s: prediction %v differs from the first cell's %v", op.name, b.name, codec.name, pred, math.Float64frombits(ref))
				}
			}
		}
	}

	// Total outage: the sessions are known to the router, nothing can serve
	// them. One status under every codec — 502, not "unknown session".
	for _, n := range cluster.names {
		cluster.gate.SetHostDown(hostOf(n), true)
	}
	outage := parityOp{name: "total outage", observed: 2.5, observe: true, horizon: 1, want: http.StatusBadGateway}
	for _, codec := range parityCodecs {
		if status, _ := codec.do(t, cluster.front.URL, cellID("routed", codec.name), outage); status != outage.want {
			t.Errorf("%s / routed / %s: status %d, want %d", outage.name, codec.name, status, outage.want)
		}
	}
	// The client surfaces it like any other upstream failure, in both modes:
	// a 5xx to retry or fall back on, not a 404 to re-register on.
	for _, binary := range []bool{false, true} {
		cl := httpapi.NewClient(cluster.front.URL)
		cl.SetWireBinary(binary)
		if _, err := cl.ObserveAndPredict(cellID("routed", "json"), 2.5, 1); httpapi.HTTPStatus(err) != http.StatusBadGateway {
			t.Errorf("client (binary=%v) during total outage: %v, want a 502 StatusError", binary, err)
		}
	}
}
