package httpapi

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/video"
)

// ingestServer builds a server whose backend has streaming intake enabled
// with the given ring capacity.
func ingestServer(t *testing.T, capacity int) *httptest.Server {
	t.Helper()
	ensureEnv()
	svc := engine.NewService(envEngine, core.DefaultConfig(), video.Default())
	svc.SetLogf(func(string, ...any) {})
	svc.SetMetrics(obs.NewRegistry())
	if err := svc.EnableOnline(engine.OnlineOptions{IntakeCapacity: capacity, MinRetrainSessions: capacity}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postIngest(t *testing.T, ts *httptest.Server, body string) (int, IngestResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("ingest response not JSON: %v", err)
	}
	return resp.StatusCode, ir
}

func ingestBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"sessions":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"session_id":"ing-`)
		b.WriteString(string(rune('a' + i)))
		b.WriteString(`","start_unix":100,"features":{"isp":"x"},"throughput_mbps":[1.5,2.5,3.5]}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestIngestEndpointDisabled(t *testing.T) {
	// The shared env server was built without EnableOnline: intake is 501.
	ts, _ := testServer(t)
	defer ts.Close()
	code, _ := postIngest(t, ts, ingestBody(1))
	if code != 501 {
		t.Fatalf("ingest on a non-online backend = %d, want 501", code)
	}
}

func TestIngestEndpointAcceptsAndValidates(t *testing.T) {
	ts := ingestServer(t, 64)
	code, ir := postIngest(t, ts, ingestBody(3))
	if code != 200 {
		t.Fatalf("valid ingest status = %d", code)
	}
	if ir.Accepted != 3 || ir.Evicted != 0 || ir.Buffered != 3 {
		t.Fatalf("accounting = %+v", ir.IngestResult)
	}

	for name, body := range map[string]string{
		"no sessions":       `{"sessions":[]}`,
		"empty id":          `{"sessions":[{"session_id":"","throughput_mbps":[1]}]}`,
		"no throughput":     `{"sessions":[{"session_id":"x"}]}`,
		"negative":          `{"sessions":[{"session_id":"x","throughput_mbps":[-1]}]}`,
		"implausible":       `{"sessions":[{"session_id":"x","throughput_mbps":[1e300]}]}`,
		"trailing garbage":  ingestBody(1) + "garbage",
		"oversized feature": `{"sessions":[{"session_id":"x","features":{"city":"` + strings.Repeat("y", 4096) + `"},"throughput_mbps":[1]}]}`,
	} {
		if code, _ := postIngest(t, ts, body); code != 400 {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	// Rejected requests must not have leaked partial batches into the ring.
	if _, ir := postIngest(t, ts, ingestBody(1)); ir.Buffered != 4 {
		t.Fatalf("buffered = %d after one more accepted session, want 4", ir.Buffered)
	}
}

func TestIngestEndpointBackpressure(t *testing.T) {
	ts := ingestServer(t, 2)
	// Capacity 2: two fills, two evictions, then churn reaches capacity and
	// the ring refuses until a retrain drains it.
	code, ir := postIngest(t, ts, ingestBody(5))
	if code != 429 {
		t.Fatalf("backpressure status = %d, want 429", code)
	}
	if ir.Accepted != 4 || ir.Evicted != 2 || ir.Buffered != 2 {
		t.Fatalf("partial accounting = %+v", ir.IngestResult)
	}
	if ir.Error == "" {
		t.Fatal("429 response missing error detail")
	}
}
