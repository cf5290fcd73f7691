package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/wire"
)

// cannedRT answers every request from memory: the client's own work, with
// no server and no socket behind it.
type cannedRT struct {
	status int
	header http.Header
	body   io.Reader // re-read from the start on every request
}

func canned(status int, body string) *cannedRT {
	return &cannedRT{status: status, body: strings.NewReader(body)}
}

func (c *cannedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body) // in-memory reader: cannot fail
		req.Body.Close()
	}
	if s, ok := c.body.(io.Seeker); ok {
		_, _ = s.Seek(0, io.SeekStart)
	}
	return &http.Response{
		StatusCode: c.status, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.header, Body: io.NopCloser(c.body), ContentLength: -1, Request: req,
	}, nil
}

// zeros is a reply body without end; bound it with io.LimitReader.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

const cannedModel = `{"cluster_id":"c","model":{"pi":[1],"trans":{"rows":1,"cols":1,"data":[1]},"emit":[{"mu":2,"sigma":0.5}]},"initial_median":2,"model_version":7}`

// TestClientErrorTaxonomy pins what every kind of call makes of every kind of
// reply — JSON, binary, readiness probe and model download all run through
// one roundTrip and must resolve to one taxonomy: a reply with a status is a
// *StatusError carrying it (Refused for 4xx/501, retryable for 5xx/429), a
// reply that could not be had is an error without one (retryable).
func TestClientErrorTaxonomy(t *testing.T) {
	predictJSON := func(c *Client) error { _, err := c.ObserveAndPredict("s", 2.5, 1); return err }
	predictWire := func(c *Client) error {
		c.SetWireBinary(true)
		_, err := c.ObserveAndPredict("s", 2.5, 1)
		return err
	}
	healthz := func(want string) func(*Client) error {
		return func(c *Client) error {
			hr, err := c.Readiness(context.Background())
			if hr.Status != want {
				t.Errorf("readiness payload status %q, want %q", hr.Status, want)
			}
			return err
		}
	}
	model := func(c *Client) error { _, err := c.FetchLocalPredictor(alienFeatures()); return err }
	modelPath := func(c *Client) error {
		err := model(c)
		if se := new(*StatusError); errors.As(err, se) && (*se).Path != "GET /v1/model" {
			t.Errorf("model fetch error path %q, want the route without the player's query", (*se).Path)
		}
		return err
	}

	for _, tc := range []struct {
		name      string
		rt        *cannedRT
		call      func(*Client) error
		status    int // HTTPStatus(err); -1 = no error at all
		refused   bool
		retryable bool
	}{
		{"json 200", canned(200, `{"prediction_mbps":2.5}`+"\n"), predictJSON, -1, false, false},
		{"json 204", canned(204, ""), func(c *Client) error { return c.Log(engine.SessionLog{SessionID: "s"}) }, -1, false, false},
		{"json 404", canned(404, `{"error":"unknown session"}`), predictJSON, 404, true, false},
		{"json 500", canned(500, `{"error":"boom"}`), predictJSON, 500, false, true},
		{"json undecodable error body", canned(502, "<html>bad gateway</html>"), predictJSON, 502, false, true},
		{"binary prediction", canned(200, string(wire.AppendPrediction(nil, 2.5))), predictWire, -1, false, false},
		{"binary MsgError", canned(404, string(wire.AppendError(nil, 404, "unknown session"))), predictWire, 404, true, false},
		{"binary MsgError with status 0", canned(500, string(wire.AppendError(nil, 0, "boom"))), predictWire, 500, false, true},
		{"binary undecodable frame", canned(503, "<html>unavailable</html>"), predictWire, 503, false, true},
		{"healthz 200", canned(200, `{"status":"ok","ready":true}`), healthz(HealthzOK), -1, false, false},
		{"healthz 503 with payload", canned(503, `{"status":"no_model"}`), healthz(HealthzNoModel), 503, false, true},
		{"healthz legacy bare 200", canned(200, "ok\n"), healthz(HealthzOK), -1, false, false},
		{"model 200", canned(200, cannedModel), model, -1, false, false},
		{"model 501", canned(501, `{"error":"model export not enabled"}`), model, 501, true, false},
		{"GET /v1/model 404", canned(404, `{"error":"no such cluster"}`), modelPath, 404, true, false},
		{"over-cap reply", &cannedRT{status: 200, body: io.LimitReader(zeros{}, maxReplyBytes+1)}, predictJSON, 0, false, true},
	} {
		err := tc.call(NewClientWith("http://canned.invalid", &http.Client{Transport: tc.rt}))
		if tc.status == -1 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || HTTPStatus(err) != tc.status || Refused(err) != tc.refused || retryable(err) != tc.retryable {
			t.Errorf("%s: %v — status %d refused %v retryable %v, want %d %v %v", tc.name, err,
				HTTPStatus(err), Refused(err), retryable(err), tc.status, tc.refused, tc.retryable)
		}
	}

	// A batch reply is a frame like any other; and a revalidated model comes
	// from the client's cache.
	batch := canned(200, string(wire.AppendBatchResult(nil, 9, []wire.OpResult{{PredictionMbps: 2.5}})))
	if _, gen, err := NewClientWith("http://canned.invalid", &http.Client{Transport: batch}).Batch([]wire.Op{{SessionID: []byte("s"), Horizon: 1}}); err != nil || gen != 9 {
		t.Errorf("batch: generation %d, %v", gen, err)
	}
	rt := &cannedRT{status: 200, header: http.Header{"Etag": {`"v7"`}}, body: strings.NewReader(cannedModel)}
	c := NewClientWith("http://canned.invalid", &http.Client{Transport: rt})
	if err := model(c); err != nil {
		t.Fatal(err)
	}
	rt.status, rt.body = http.StatusNotModified, strings.NewReader("")
	if err := model(c); err != nil {
		t.Errorf("model 304 from cache: %v", err)
	}
	if got := c.ModelFetchStats(); got != (ModelFetchStats{Downloads: 1, NotModified: 1}) {
		t.Errorf("model fetch stats %+v, want one download and one revalidation", got)
	}
}

// TestClientAllocFloor pins the per-chunk call's allocation bill in both
// encodings to what the five separate request builders cost before they
// became one roundTrip (measured by this test on that tree): folding them
// together must not tax the hot call.
func TestClientAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, tc := range []struct {
		name   string
		binary bool
		reply  string
		want   float64
	}{
		{"json", false, `{"prediction_mbps":2.5}` + "\n", 42},
		{"binary", true, string(wire.AppendPrediction(nil, 2.5)), 41},
	} {
		c := NewClientWith("http://canned.invalid", &http.Client{Timeout: 5 * time.Second, Transport: canned(200, tc.reply)})
		c.SetWireBinary(tc.binary)
		got := testing.AllocsPerRun(200, func() {
			if p, err := c.ObserveAndPredict("sess-000001", 2.5, 1); err != nil || p != 2.5 {
				t.Fatalf("%s: %v, %v", tc.name, p, err)
			}
		})
		if got > tc.want {
			t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.want)
		}
	}
}
