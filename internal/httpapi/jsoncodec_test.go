package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// decodeSeeds are the shapes where a hand-written scanner and encoding/json
// could disagree; %s is replaced by each codec's own canonical document.
var decodeSeeds = []string{
	`%s`, ` %s `, "\t%s\r\n", `%s}`, `%s]`, `%s ]]]garbage`, `%s{}`, "\xef\xbb\xbf%s", "%s\x00",
	`{}`, `{ }`, `null`, `[]`, `"x"`, `1`, ``, `{,}`, `{"session_id":"a",}`, `{"session_id" "a"}`, `{"session_id":"a" "horizon":1}`,
	`{"session_id":"a","session_id":"b"}`,                  // duplicate key: last wins
	`{"observed_mbps":1,"observed_mbps":null}`,             // null after a value clears it
	`{"observed_mbps":null,"observed_mbps":2,"horizon":3}`, // and a value after null sets it
	`{"session_id":null}`, `{"horizon":null}`, `{"features":null}`, `{"start_unix":null}`,
	`{"observed_mbps":-0}`, `{"observed_mbps":-0.0e-0}`, `{"observed_mbps":1e400}`, `{"observed_mbps":1E+2}`, `{"observed_mbps":01}`,
	`{"observed_mbps":1.}`, `{"observed_mbps":.5}`, `{"observed_mbps":+1}`, `{"observed_mbps":-}`, `{"observed_mbps":1e}`, `{"observed_mbps":0x10}`,
	`{"observed_mbps":NaN}`, `{"observed_mbps":"1"}`, `{"observed_mbps":nullx}`, `{"observed_mbps":nul`, `{"observed_mbps":12abc}`,
	`{"horizon":1.0}`, `{"horizon":1e0}`, `{"horizon":-3}`, `{"horizon":9223372036854775808}`, `{"horizon":-0}`, `{"horizon":00}`,
	`{"start_unix":1e99}`, `{"start_unix":-9223372036854775808}`, `{"start_unix":1.5}`,
	`{"Session_ID":"x","unknown":[1,{"a":2}],"observed_mbps":1e0}`, // key case, an unknown member
	`{"SESSION_ID":"x"}`, `{"session_id":"a\u0062"}`, `{"session\u005fid":"a"}`, `{"session_id":"a\"b"}`, `{"session_id":"a\\"}`,
	"{\"session_id\":\"caf\xc3\xa9\"}", "{\"session_id\":\"\xff\"}", "{\"session_id\":\"a\x01b\"}", "{\"session_id\":\"a\x7fb\"}", "{\"session_id\":\"a\nb\"}",
	`{"features":{"extra":{"k":"v"}}}`, `{"features":{"isp":"a"},"features":{"city":"b"}}`, `{"features":{"isp":"a","isp":"b"}}`,
	`{"features":{"ISP":"a"}}`, `{"features":{}}`, `{"features":[]}`, `{"features":{"isp":1}}`, `{"features":{"isp":"a"}`,
	`{"prediction_mbps":2.5,"extra":1}`, `{"cluster_id":"a<b"}`, `{"suggested_initial_level":2.0}`,
}

// addDecodeSeeds seeds f with decodeSeeds around canonical, plus every
// truncation of canonical.
func addDecodeSeeds(f *testing.F, canonical ...string) {
	for _, c := range canonical {
		for _, s := range decodeSeeds {
			f.Add([]byte(strings.Replace(s, "%s", c, 1)))
		}
		for i := range c {
			f.Add([]byte(c[:i]))
		}
	}
}

// sameDecode is the differential oracle: a scanner either declines, or
// encoding/json accepts the same bytes and yields exactly the same value.
func sameDecode[T any](t *testing.T, what string, b []byte, got T, ok bool) {
	t.Helper()
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s accepted %q, encoding/json refuses it: %v", what, b, err)
	}
	// %#v, not DeepEqual: it tells -0 from 0.
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("%s(%q) = %s, encoding/json yields %s", what, b, g, w)
	}
}

func bits(f float64) uint64 { return math.Float64bits(f) }

// FuzzPredictDecode holds both /v1/predict scanners — the server's request
// side and the client's response side — to encoding/json.
func FuzzPredictDecode(f *testing.F) {
	addDecodeSeeds(f, `{"session_id":"s-1","observed_mbps":2.8326065075813625,"horizon":1}`, `{"prediction_mbps":3.25}`)
	f.Fuzz(func(t *testing.T, b []byte) {
		op, ok := scanPredictRequest(b)
		if ok {
			var want PredictRequest
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("scanPredictRequest accepted %q, encoding/json refuses it: %v", b, err)
			}
			wantObs, has := 0.0, want.ObservedMbps != nil
			if has {
				wantObs = *want.ObservedMbps
			}
			if string(op.SessionID) != want.SessionID || op.Horizon != want.Horizon || op.HasObserve != has || bits(op.ObservedMbps) != bits(wantObs) || op.WantState {
				t.Fatalf("scanPredictRequest(%q) = %+v, encoding/json yields %+v (observed %v)", b, op, want, wantObs)
			}
		}
		resp, ok := scanPredictResponse(b)
		sameDecode(t, "scanPredictResponse", b, resp, ok)
	})
}

// FuzzStartDecode does the same for /v1/session/start.
func FuzzStartDecode(f *testing.F) {
	addDecodeSeeds(f,
		`{"session_id":"s-1","features":{"client_ip":"10.1.2.3","isp":"ISP-00","as":"AS1","province":"Prov-00","city":"City-00-00","server":"srv-03"},"start_unix":1700000000}`,
		`{"initial_prediction_mbps":2.5,"cluster_id":"ISP=ISP-00|City=City-00-00","rebuffer_estimate_sec":0.25,"suggested_initial_level":2,"suggested_initial_kbps":1000}`)
	f.Fuzz(func(t *testing.T, b []byte) {
		req, ok := scanStartRequest(b)
		sameDecode(t, "scanStartRequest", b, req, ok)
		resp, ok := scanStartResponse(b)
		sameDecode(t, "scanStartResponse", b, resp, ok)
	})
}

// TestScannersTakeTheCanonicalForm: the differential targets pass trivially
// if a scanner declines everything, so pin that the documents both ends
// actually exchange are taken, and a few that must not be.
func TestScannersTakeTheCanonicalForm(t *testing.T) {
	pred := `{"session_id":"s-1","observed_mbps":2.5,"horizon":1}`
	for _, b := range []string{pred, ` { "session_id" : "s-1" , "observed_mbps" : null } ` + "\n", `{}`, `{"horizon":512,"horizon":2}`} {
		if _, ok := scanPredictRequest([]byte(b)); !ok {
			t.Errorf("scanPredictRequest declined %q", b)
		}
	}
	for _, b := range []string{pred + "}", pred[:len(pred)-1], `{"Session_id":"a"}`, `{"session_id":"é"}`, `{"horizon":1.0}`, `{"horizon":null}`, `{"observed_mbps":1e400}`, `null`} {
		if _, ok := scanPredictRequest([]byte(b)); ok {
			t.Errorf("scanPredictRequest took %q", b)
		}
	}
	f := trace.Features{ClientIP: "10.1.2.3", ISP: "ISP-00", AS: "AS1", Province: "Prov-00", City: "City-00-00", Server: "srv-03"}
	body, ok := appendStartRequest(nil, "s-1", f, 1700000000)
	req, sok := scanStartRequest(body)
	if want := (StartRequest{SessionID: "s-1", Features: f, StartUnix: 1700000000}); !ok || !sok || !reflect.DeepEqual(req, want) {
		t.Errorf("start request round trip: %+v (encoded %v, scanned %v), want %+v", req, ok, sok, want)
	}
	if _, ok := scanStartRequest([]byte(`{"features":{"extra":{}}}`)); ok {
		t.Error("scanStartRequest took features.extra")
	}
	sr := engine.StartResponse{InitialPredictionMbps: 2.8326065075813625, ClusterID: "ISP=ISP-00|City=City-00-00", RebufferEstimateSec: 1e-7, SuggestedInitialLevel: 2, SuggestedInitialKbps: 1000}
	doc, ok := appendStartResponse(nil, sr)
	if got, sok := scanStartResponse(doc); !ok || !sok || got != sr {
		t.Errorf("start response round trip: %+v (encoded %v, scanned %v), want %+v", got, ok, sok, sr)
	}
	doc, ok = appendPredictResponse(nil, 5e-324)
	if got, sok := scanPredictResponse(doc); !ok || !sok || got.PredictionMbps != 5e-324 {
		t.Errorf("predict response round trip: %v (encoded %v, scanned %v)", got, ok, sok)
	}
}

// sameEncode: an encoder either declines or appends exactly v's
// encoding/json bytes (plus the Encoder's newline on responses).
func sameEncode(t *testing.T, what string, got []byte, ok bool, v any, newline string) {
	t.Helper()
	want, err := json.Marshal(v)
	if !ok {
		return
	}
	if err != nil {
		t.Fatalf("%s encoded %+v, encoding/json refuses it: %v", what, v, err)
	}
	if string(got) != string(want)+newline {
		t.Fatalf("%s = %q, encoding/json gives %q", what, got, want)
	}
}

func checkFloat(t *testing.T, v float64) {
	t.Helper()
	a := jsonAppend{ok: true}
	a.float("", v)
	sameEncode(t, "jsonAppend.float", a.b, a.ok, v, "")
	if finite := !math.IsNaN(v) && !math.IsInf(v, 0); a.ok != finite {
		t.Fatalf("jsonAppend.float(%v) ok = %v", v, a.ok)
	}
}

func TestAppendJSONFloat(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 1.5e-10, 5e-324, math.MaxFloat64, -math.MaxFloat64, 3000, 2.8326065075813625, 1e-100, 123456789e13, math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkFloat(t, v)
	}
}

// FuzzAppendJSONFloat holds every encoder to encoding/json's bytes: the
// float format over arbitrary bit patterns, and the four documents with an
// arbitrary string in every string field.
func FuzzAppendJSONFloat(f *testing.F) {
	f.Add(math.Float64bits(2.5), "s-1", int64(1))
	f.Add(math.Float64bits(1e-7), `a<b"c`, int64(-3))
	f.Add(math.Float64bits(3000), "City+ISP|hist:6h0m0s@City-00-00\x1fISP-00", int64(4)) // a real cluster id
	f.Add(math.Float64bits(math.Copysign(0, -1)), "a\tb\nc\bd\fe\rf\\g", int64(7))
	f.Add(math.Float64bits(1e21), "caf\xc3\xa9", int64(0))
	f.Add(math.Float64bits(math.NaN()), "a\x7f\x00\xff", int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, fbits uint64, s string, n int64) {
		v := math.Float64frombits(fbits)
		checkFloat(t, v)

		got, ok := appendPredictResponse(nil, v)
		sameEncode(t, "appendPredictResponse", got, ok, PredictResponse{PredictionMbps: v}, "\n")
		sr := engine.StartResponse{InitialPredictionMbps: v, ClusterID: s, RebufferEstimateSec: -v, SuggestedInitialLevel: int(n), SuggestedInitialKbps: v / 3}
		got, ok = appendStartResponse(nil, sr)
		sameEncode(t, "appendStartResponse", got, ok, sr, "\n")

		got, ok = appendPredictRequest(nil, s, v, true, int(n))
		sameEncode(t, "appendPredictRequest", got, ok, PredictRequest{SessionID: s, ObservedMbps: &v, Horizon: int(n)}, "")
		got, ok = appendPredictRequest(nil, s, 0, false, int(n))
		sameEncode(t, "appendPredictRequest", got, ok, PredictRequest{SessionID: s, Horizon: int(n)}, "")
		feat := trace.Features{ClientIP: s, ISP: "i", AS: s, Province: "p", City: s, Server: "v"}
		got, ok = appendStartRequest(nil, s, feat, n)
		sameEncode(t, "appendStartRequest", got, ok, StartRequest{SessionID: s, Features: feat, StartUnix: n}, "")
		feat.Extra = map[string]string{"k": s}
		if _, ok = appendStartRequest(nil, "id", feat, n); ok {
			t.Fatal("appendStartRequest encoded features.extra")
		}
	})
}

// parityBackend answers from the request alone, so the handler and the
// reference below can be asked the same thing: a start's cluster id is the
// session's ISP feature (any string a test wants in a response), an op's
// prediction a function of the op.
type parityBackend struct{ fixedBackend }

func (b parityBackend) ServeBatch(ops []engine.BatchOp, res []engine.BatchResult) uint64 {
	gen := b.fixedBackend.ServeBatch(ops, res)
	for i := range ops {
		if ops[i].Malformed() { // the BatchService contract serveOps relies on
			res[i] = engine.BatchResult{Code: wire.OpInvalid}
		}
	}
	return gen
}

func (parityBackend) StartSession(id string, f trace.Features, startUnix int64) engine.StartResponse {
	return engine.StartResponse{InitialPredictionMbps: 2.8326065075813625, ClusterID: f.ISP, RebufferEstimateSec: float64(startUnix) * 1e-9, SuggestedInitialLevel: len(id), SuggestedInitialKbps: 3000}
}

// referenceReply is the player routes written with encoding/json alone:
// Unmarshal the body, run the server's checks and backend, Encode the reply.
func referenceReply(s *Server, path string, body []byte) (int, any) {
	malformed := func(err error) (int, any) {
		return http.StatusBadRequest, ErrorBody{Error: "malformed JSON: " + err.Error()}
	}
	rec := httptest.NewRecorder() // catches the validators' own error replies
	reply := func() (int, any) {
		var eb ErrorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &eb)
		return rec.Code, eb
	}
	switch path {
	case "/v1/session/start":
		var req StartRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return malformed(err)
		}
		if !s.validSessionID(rec, len(req.SessionID)) || !s.validFeatures(rec, req.Features) {
			return reply()
		}
		return http.StatusOK, s.svc.StartSession(req.SessionID, req.Features, req.StartUnix)
	case "/v1/predict":
		var req PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return malformed(err)
		}
		if !s.validSessionID(rec, len(req.SessionID)) {
			return reply()
		}
		op := engine.BatchOp{SessionID: []byte(req.SessionID), Horizon: req.Horizon}
		if req.ObservedMbps != nil {
			op.ObservedMbps, op.HasObserve = *req.ObservedMbps, true
		}
		pred, status, msg := s.serveOne(&opScratch{}, op)
		if status != http.StatusOK {
			return status, ErrorBody{Error: msg}
		}
		return status, PredictResponse{PredictionMbps: pred}
	}
	panic("no reference for " + path)
}

// TestPlayerRouteResponseParity posts the same bodies to the handlers and to
// the encoding/json reference and compares status, Content-Type and body byte
// for byte — scanned and declined requests, appended and WriteJSON'd replies.
func TestPlayerRouteResponseParity(t *testing.T) {
	srv := NewServer(parityBackend{}, nil)
	srv.SetLogf(func(string, ...any) {})
	h := srv.Handler()
	start := func(id, isp string) string {
		b, _ := json.Marshal(StartRequest{SessionID: id, Features: trace.Features{ISP: isp, City: "c"}, StartUnix: 1700000000})
		return string(b)
	}
	cases := []struct{ path, body string }{
		{"/v1/predict", `{"session_id":"s1","observed_mbps":2.5,"horizon":3}`},
		{"/v1/predict", `{"session_id":"s1","observed_mbps":1e-7}`}, // reply in 'e' format
		{"/v1/predict", `{"session_id":"s1","observed_mbps":99999.5}`},
		{"/v1/predict", `{"session_id":"s1","horizon":2}`},
		{"/v1/predict", `{"session_id":"s1","observed_mbps":null,"horizon":0}`},
		{"/v1/predict", `{"Session_ID":"x","unknown":[1,{"a":2}],"observed_mbps":1e0}`}, // declined: encoding/json decodes it
		{"/v1/predict", `{"session_id":"caf\u00e9","observed_mbps":1}`},
		{"/v1/predict", `{"session_id":"gone","observed_mbps":1}`},
		{"/v1/predict", `{"session_id":"s1","observed_mbps":-1}`},
		{"/v1/predict", `{"session_id":"s1","observed_mbps":1e400}`},
		{"/v1/predict", `{"session_id":"s1","horizon":1.0}`},
		{"/v1/predict", `{"session_id":"s1","horizon":100000}`},
		{"/v1/predict", `{"session_id":""}`},
		{"/v1/predict", `{"session_id":"` + strings.Repeat("x", 300) + `"}`},
		{"/v1/predict", `{"session_id":"s1","observed_mbps":1}}`},
		{"/v1/predict", `{"session_id":"s1","observed_mbps":1}garbage`},
		{"/v1/predict", `{"session_id":"s1"`},
		{"/v1/predict", ``},
		{"/v1/predict", `null`},
		{"/v1/session/start", start("s1", "ISP-00")},
		{"/v1/session/start", start("s2", `a<b "quoted" & café`)},  // a cluster id encoding/json must escape
		{"/v1/session/start", start("s7", "City-00-00\x1fISP-00")}, // and one the appender escapes itself
		{"/v1/session/start", `{"session_id":"s3","features":{"isp":"i","extra":{"k":"v"}},"start_unix":5}`},
		{"/v1/session/start", `{"session_id":"s4","features":{"city":"` + strings.Repeat("x", 300) + `"}}`},
		{"/v1/session/start", `{"session_id":"s5","start_unix":1e99}`},
		{"/v1/session/start", `{"session_id":"s6"}]`},
		{"/v1/session/start", `{}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		status, v := referenceReply(srv, tc.path, []byte(tc.body))
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != want.String() {
			t.Errorf("POST %s %.80q:\n got %d %q %q\nwant %d %q %q", tc.path, tc.body,
				rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), status, "application/json", want.String())
		}
	}
}

// TestClientJSONRequestsFrozen pins what the JSON client puts on the wire to
// literal bytes — json.Marshal's, as captured before the requests were
// appended by hand — along with the path (under a base URL that carries a
// prefix, parsed once at construction) and the headers.
func TestClientJSONRequestsFrozen(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Header.Get("Content-Type") != "application/json" || r.Header.Get(obs.RequestIDHeader) == "" || r.ContentLength != int64(len(body)) {
			t.Errorf("%s: headers %v, content length %d for %d bytes", r.URL.Path, r.Header, r.ContentLength, len(body))
		}
		got = append(got, r.Method+" "+r.URL.RequestURI()+" "+string(body))
		if strings.HasSuffix(r.URL.Path, "/start") {
			_, _ = io.WriteString(w, `{"initial_prediction_mbps":2.5,"cluster_id":"a\u001fb","rebuffer_estimate_sec":1e-7,"suggested_initial_level":2,"suggested_initial_kbps":1000}`+"\n")
			return
		}
		_, _ = io.WriteString(w, `{"prediction_mbps":3.25}`+"\n")
	}))
	defer ts.Close()
	c := NewClient(ts.URL + "/edge")
	if p, err := c.ObserveAndPredict("s1", 2.8326065075813625, 1); err != nil || p != 3.25 {
		t.Fatalf("observe: %v, %v", p, err)
	}
	if p, err := c.ObserveAndPredict("s1", 1e-7, 0); err != nil || p != 3.25 {
		t.Fatalf("observe: %v, %v", p, err)
	}
	if p, err := c.PredictAt("s1", 3); err != nil || p != 3.25 {
		t.Fatalf("predict at: %v, %v", p, err)
	}
	if p, err := c.ObserveAndPredict(`café "<1>"`, 2, 1); err != nil || p != 3.25 { // the encoder declines: json.Marshal's bytes
		t.Fatalf("observe: %v, %v", p, err)
	}
	f := trace.Features{ClientIP: "10.1.2.3", ISP: "ISP-00", AS: "AS1", Province: "Prov-00", City: "City-00-00", Server: "srv-03"}
	resp, err := c.StartSession("s1", f, 1700000000) // the reply's escape makes the scanner decline: encoding/json reads it
	if want := (engine.StartResponse{InitialPredictionMbps: 2.5, ClusterID: "a\x1fb", RebufferEstimateSec: 1e-7, SuggestedInitialLevel: 2, SuggestedInitialKbps: 1000}); err != nil || resp != want {
		t.Fatalf("start: %+v, %v", resp, err)
	}
	want := []string{
		`POST /edge/v1/predict {"session_id":"s1","observed_mbps":2.8326065075813625,"horizon":1}`,
		`POST /edge/v1/predict {"session_id":"s1","observed_mbps":1e-7}`,
		`POST /edge/v1/predict {"session_id":"s1","observed_mbps":null,"horizon":3}`,
		`POST /edge/v1/predict {"session_id":"café \"\u003c1\u003e\"","observed_mbps":2,"horizon":1}`,
		`POST /edge/v1/session/start {"session_id":"s1","features":{"client_ip":"10.1.2.3","isp":"ISP-00","as":"AS1","province":"Prov-00","city":"City-00-00","server":"srv-03"},"start_unix":1700000000}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requests on the wire:\n got %q\nwant %q", got, want)
	}
}
