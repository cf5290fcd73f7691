package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postRaw sends a raw JSON body and returns the status code.
func postRaw(t *testing.T, url, path, body string) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestPredictInputValidation(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	s := test.Sessions[0]
	if _, err := c.StartSession("valid", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"negative observation", `{"session_id":"valid","observed_mbps":-1}`, 400},
		{"absurd observation", `{"session_id":"valid","observed_mbps":1e9}`, 400},
		{"infinite observation", `{"session_id":"valid","observed_mbps":1e999}`, 400}, // overflows float64 -> malformed
		{"NaN observation", `{"session_id":"valid","observed_mbps":NaN}`, 400},        // not valid JSON
		{"negative horizon", `{"session_id":"valid","horizon":-2}`, 400},
		{"absurd horizon", `{"session_id":"valid","horizon":100000}`, 400},
		{"huge session id", `{"session_id":"` + strings.Repeat("x", 4096) + `"}`, 400},
		{"valid observation still works", `{"session_id":"valid","observed_mbps":2.5}`, 200},
		{"valid horizon boundary", `{"session_id":"valid","horizon":512}`, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := postRaw(t, ts.URL, "/v1/predict", tc.body); got != tc.want {
				t.Errorf("status = %d, want %d", got, tc.want)
			}
		})
	}
	// The rejected inputs must not have corrupted the session: a valid
	// round trip still returns a finite, positive prediction.
	p, err := c.ObserveAndPredict("valid", 3.0, 1)
	if err != nil || !(p > 0) {
		t.Errorf("session corrupted by rejected inputs: p=%v err=%v", p, err)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := testServer(t)
	defer ts.Close()
	big := `{"session_id":"pad","padding":"` + strings.Repeat("y", 2<<20) + `"}`
	if got := postRaw(t, ts.URL, "/v1/session/start", big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("2MiB body status = %d, want 413", got)
	}
}

// TestPanicRecoveryMiddleware wires a handler that panics and checks the
// middleware converts it into a JSON 500 and counts it.
func TestPanicRecoveryMiddleware(t *testing.T) {
	ts, _ := testServer(t)
	defer ts.Close()
	srv := envServer
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := srv.recoverMiddleware(mux)
	before := srv.PanicCount()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if srv.PanicCount() != before+1 {
		t.Errorf("panic not counted: %d -> %d", before, srv.PanicCount())
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Errorf("body = %q", rec.Body.String())
	}
}
