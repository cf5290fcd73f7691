package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCSVRoundTrip(t *testing.T) {
	d := buildDataset()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip lost sessions: %d vs %d", got.Len(), d.Len())
	}
	for i := range d.Sessions {
		if !reflect.DeepEqual(d.Sessions[i], got.Sessions[i]) {
			t.Errorf("session %d mismatch:\n%+v\n%+v", i, d.Sessions[i], got.Sessions[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := buildDataset()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.EpochSeconds != d.EpochSeconds || got.Len() != d.Len() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !reflect.DeepEqual(d.Sessions[0], got.Sessions[0]) {
		t.Error("session 0 mismatch after JSON round trip")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b,c,d,e,f,g,h,i\n"))
	if err == nil {
		t.Error("expected header error")
	}
}

func TestReadCSVRejectsBadFields(t *testing.T) {
	header := strings.Join(csvHeader, ",") + "\n"
	cases := []string{
		header + "id,notanum,1.2.3.4,isp,as,p,c,s,1;2\n",
		header + "id,1700000000,1.2.3.4,isp,as,p,c,s,1;x\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		n := 1 + r.Intn(10)
		for i := 0; i < n; i++ {
			epochs := 1 + r.Intn(20)
			tp := make([]float64, epochs)
			for j := range tp {
				tp[j] = r.Float64() * 30
			}
			d.Sessions = append(d.Sessions, &Session{
				ID:        "s" + string(rune('a'+i)),
				StartUnix: r.Int63n(1 << 40),
				Features: Features{
					ClientIP: "9.8.7.6", ISP: "i", AS: "a",
					Province: "p", City: "c", Server: "s",
				},
				Throughput: tp,
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(d.Sessions, got.Sessions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestValidateRejectsNonFiniteEpochs: ReadCSV parses NaN and ±Inf, and
// Validate is the gate that must stop them — a non-finite first epoch would
// otherwise poison every median and EM fit it reaches.
func TestValidateRejectsNonFiniteEpochs(t *testing.T) {
	for _, w := range []string{"NaN", "Inf", "-Inf"} {
		csv := "id,start_unix,client_ip,isp,as,province,city,server,throughput_mbps\n" +
			"ok,1700000000,1.2.3.4,i,a,p,c,s,1;2\n" +
			"bad,1700000060,1.2.3.4,i,a,p,c,s,1.5;" + w + ";2\n"
		d, err := ReadCSV(strings.NewReader(csv))
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", w, err)
		}
		err = d.Validate()
		if err == nil {
			t.Fatalf("%s epoch passed Validate", w)
		}
		if msg := err.Error(); !strings.Contains(msg, "session bad epoch 1") {
			t.Errorf("%s: error %q does not name the session and epoch", w, msg)
		}
	}
}
