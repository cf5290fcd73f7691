package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestOpRoundTrip(t *testing.T) {
	for _, op := range []Op{
		{SessionID: []byte("s1"), ObservedMbps: 3.25, Horizon: 1, HasObserve: true},
		{SessionID: []byte("a-long-session-identifier-0123456789"), Horizon: 7},
		{SessionID: []byte("x"), ObservedMbps: 0, Horizon: 0, HasObserve: true},
	} {
		frame := AppendOp(nil, op)
		f, err := DecodeFrame(frame, DefaultLimits())
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if f.Type != MsgOp {
			t.Fatalf("type = %v, want MsgOp", f.Type)
		}
		got, err := DecodeOp(f.Payload, DefaultLimits())
		if err != nil {
			t.Fatalf("DecodeOp: %v", err)
		}
		if !bytes.Equal(got.SessionID, op.SessionID) || got.ObservedMbps != op.ObservedMbps ||
			got.Horizon != op.Horizon || got.HasObserve != op.HasObserve {
			t.Errorf("round trip mismatch: got %+v want %+v", got, op)
		}
	}
}

// TestHorizonSaturates: Op.Horizon is an int (JSON carries one) and the frame
// field a u16; both encoders clamp into it, so an out-of-range horizon reaches
// the server as one its range check still refuses (or, negative, as 0 = the
// default), never wrapped into a plausible one.
func TestHorizonSaturates(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-1, 0}, {0, 0}, {math.MaxUint16, math.MaxUint16}, {70000, math.MaxUint16}} {
		op := Op{SessionID: []byte("s"), Horizon: tc.in}
		f, err := DecodeFrame(AppendOp(nil, op), DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		single, err := DecodeOp(f.Payload, DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		if f, err = DecodeFrame(AppendBatch(nil, []Op{op}), DefaultLimits()); err != nil {
			t.Fatal(err)
		}
		batch, err := DecodeBatch(f.Payload, DefaultLimits(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if single.Horizon != tc.want || batch[0].Horizon != tc.want {
			t.Errorf("horizon %d decoded as %d (single) / %d (batch), want %d", tc.in, single.Horizon, batch[0].Horizon, tc.want)
		}
	}
}

// TestMalformed: exactly the observations no filter may absorb.
func TestMalformed(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want bool
	}{
		{Op{ObservedMbps: math.NaN(), HasObserve: true}, true},
		{Op{ObservedMbps: math.Inf(1), HasObserve: true}, true},
		{Op{ObservedMbps: math.Inf(-1), HasObserve: true}, true},
		{Op{ObservedMbps: -0.5, HasObserve: true}, true},
		{Op{ObservedMbps: 0, HasObserve: true}, false},
		{Op{ObservedMbps: 2.5, HasObserve: true}, false},
		{Op{ObservedMbps: math.NaN()}, false}, // no observation: the field is not read
	} {
		if got := tc.op.Malformed(); got != tc.want {
			t.Errorf("%+v: Malformed() = %v, want %v", tc.op, got, tc.want)
		}
	}
}

func TestPredictionRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 2.5, math.Pi, 1e5} {
		frame := AppendPrediction(nil, v)
		f, err := DecodeFrame(frame, DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePrediction(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("prediction round trip: got %v want %v", got, v)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ops := []Op{
		{SessionID: []byte("s-a"), ObservedMbps: 1.5, Horizon: 1, HasObserve: true},
		{SessionID: []byte("s-b"), Horizon: 3},
		{SessionID: []byte("s-a"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true},
	}
	frame := AppendBatch(nil, ops)
	f, err := DecodeFrame(frame, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgBatch {
		t.Fatalf("type = %v, want MsgBatch", f.Type)
	}
	got, err := DecodeBatch(f.Payload, DefaultLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i].SessionID, ops[i].SessionID) || got[i].ObservedMbps != ops[i].ObservedMbps ||
			got[i].Horizon != ops[i].Horizon || got[i].HasObserve != ops[i].HasObserve {
			t.Errorf("op %d mismatch: got %+v want %+v", i, got[i], ops[i])
		}
	}

	res := []OpResult{{PredictionMbps: 2.25}, {Code: OpUnknownSession}, {PredictionMbps: 4.5}}
	rframe := AppendBatchResult(nil, 42, res)
	rf, err := DecodeFrame(rframe, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gen, err := DecodeBatchResult(rf.Payload, DefaultLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 {
		t.Errorf("generation = %d, want 42", gen)
	}
	if len(gotRes) != len(res) {
		t.Fatalf("decoded %d results, want %d", len(gotRes), len(res))
	}
	for i := range res {
		if gotRes[i].Code != res[i].Code || gotRes[i].PredictionMbps != res[i].PredictionMbps || len(gotRes[i].State.Posterior) != 0 {
			t.Errorf("result %d mismatch: got %+v want %+v", i, gotRes[i], res[i])
		}
	}
}

// stateResults is a state-carrying result set covering every shape: a full
// state, a result without one, and a state whose pending prediction is NaN.
func stateResults() []OpResult {
	return []OpResult{
		{PredictionMbps: 2.25, State: State{Posterior: []float64{0.25, 0.5, 0.25}, LastOneStep: 2.25, ModelVersion: 7, ModelGeneration: 3, Epoch: 41, Started: true}},
		{Code: OpUnknownSession},
		{PredictionMbps: 1, State: State{Posterior: []float64{1}, LastOneStep: math.NaN(), Epoch: 0}},
	}
}

func sameState(a, b State) bool {
	if len(a.Posterior) != len(b.Posterior) || math.Float64bits(a.LastOneStep) != math.Float64bits(b.LastOneStep) ||
		a.ModelVersion != b.ModelVersion || a.ModelGeneration != b.ModelGeneration || a.Epoch != b.Epoch || a.Started != b.Started {
		return false
	}
	for i := range a.Posterior {
		if math.Float64bits(a.Posterior[i]) != math.Float64bits(b.Posterior[i]) {
			return false
		}
	}
	return true
}

// TestBatchStateResultRoundTrip: the state-carrying result type carries every
// field bit-exact, and the op flag that asks for it survives a batch frame
// but is refused on a single-op frame, whose response cannot answer it.
func TestBatchStateResultRoundTrip(t *testing.T) {
	lim := DefaultLimits()
	res := stateResults()
	f, err := DecodeFrame(AppendBatchStateResult(nil, 42, res), lim)
	if err != nil || f.Type != MsgBatchStateResult {
		t.Fatalf("frame: type %v err %v", f.Type, err)
	}
	got, gen, err := DecodeBatchStateResult(f.Payload, lim, nil)
	if err != nil || gen != 42 || len(got) != len(res) {
		t.Fatalf("decode: %d results gen %d err %v", len(got), gen, err)
	}
	for i := range res {
		if got[i].Code != res[i].Code || got[i].PredictionMbps != res[i].PredictionMbps || !sameState(got[i].State, res[i].State) {
			t.Errorf("result %d: got %+v want %+v", i, got[i], res[i])
		}
	}

	ops := []Op{{SessionID: []byte("s"), ObservedMbps: 1, Horizon: 1, HasObserve: true, WantState: true}, {SessionID: []byte("s"), Horizon: 2}}
	bf, _ := DecodeFrame(AppendBatch(nil, ops), lim)
	gotOps, err := DecodeBatch(bf.Payload, lim, nil)
	if err != nil || !gotOps[0].WantState || gotOps[1].WantState {
		t.Fatalf("WantState through a batch: %+v err %v", gotOps, err)
	}
	of, _ := DecodeFrame(AppendOp(nil, ops[0]), lim)
	if _, err := DecodeOp(of.Payload, lim); !errors.Is(err, ErrBadValue) {
		t.Errorf("single op asking for state: err = %v, want ErrBadValue", err)
	}
	// The remaining flag bits are still reserved.
	bad := AppendBatch(nil, ops[1:])
	bad[HeaderLen+2] |= 0x04
	bf, _ = DecodeFrame(bad, lim)
	if _, err := DecodeBatch(bf.Payload, lim, nil); !errors.Is(err, ErrBadValue) {
		t.Errorf("reserved flag bit: err = %v, want ErrBadValue", err)
	}
}

func TestDecodeBatchStateResultBounds(t *testing.T) {
	lim := DefaultLimits()
	valid := AppendBatchStateResult(nil, 1, stateResults())
	payload := func(mut func(p []byte) []byte) []byte {
		return mut(append([]byte(nil), valid[HeaderLen:]...))
	}
	// Offsets into the payload: gen(8) count(2), then op 0 = code(1)
	// pred(8) n(2) started(1)...
	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"short", payload(func(p []byte) []byte { return p[:9] }), ErrTruncated},
		{"cut mid-state", payload(func(p []byte) []byte { return p[:40] }), ErrTruncated},
		{"lying posterior count", payload(func(p []byte) []byte { p[19], p[20] = 0xFF, 0xFF; return p }), ErrTruncated},
		{"lying op count", payload(func(p []byte) []byte { p[8] = 9; return p }), ErrTruncated},
		{"non-canonical started", payload(func(p []byte) []byte { p[21] = 2; return p }), ErrBadValue},
		{"trailing", payload(func(p []byte) []byte { return append(p, 0) }), ErrTrailingData},
		{"too many ops", payload(func(p []byte) []byte { p[8], p[9] = 0xFF, 0xFF; return p }), ErrOversize},
	}
	for _, tc := range cases {
		if _, _, err := DecodeBatchStateResult(tc.p, lim, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	frame := AppendError(nil, 404, "unknown session")
	f, err := DecodeFrame(frame, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	status, msg, err := DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if status != 404 || string(msg) != "unknown session" {
		t.Errorf("got (%d, %q)", status, msg)
	}
}

// TestDecodeErrors walks the typed-error taxonomy: every hostile shape must
// land on its named sentinel, never a panic or a silent accept.
func TestDecodeErrors(t *testing.T) {
	lim := DefaultLimits()
	valid := AppendOp(nil, Op{SessionID: []byte("s"), Horizon: 1, HasObserve: true, ObservedMbps: 1})
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:5], ErrTruncated},
		{"bad magic", append([]byte{0x00, 0x00}, valid[2:]...), ErrBadMagic},
		{"json body", []byte(`{"session_id":"x"} padded out to header length`), ErrBadMagic},
		{"future version", func() []byte {
			b := append([]byte(nil), valid...)
			b[2] = 99
			return b
		}(), ErrVersion},
		{"unknown type", func() []byte {
			b := append([]byte(nil), valid...)
			b[3] = 0x7F
			return b
		}(), ErrUnknownType},
		{"truncated payload", valid[:len(valid)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xFF), ErrTrailingData},
		{"oversize declared", func() []byte {
			b := append([]byte(nil), valid...)
			b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		}(), ErrOversize},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.b, lim); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeOpBounds(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxSessionIDLen = 4

	// Oversize session id is rejected by the limit, not the buffer length.
	frame := AppendOp(nil, Op{SessionID: []byte("too-long-for-limit"), Horizon: 1})
	f, err := DecodeFrame(frame, lim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOp(f.Payload, lim); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize id: err = %v, want ErrOversize", err)
	}

	// Empty session id is never valid.
	frame = AppendOp(nil, Op{SessionID: nil, Horizon: 1})
	f, _ = DecodeFrame(frame, lim)
	if _, err := DecodeOp(f.Payload, lim); !errors.Is(err, ErrBadValue) {
		t.Errorf("empty id: err = %v, want ErrBadValue", err)
	}

	// An id length that over-reads the payload is truncation.
	frame = AppendOp(nil, Op{SessionID: []byte("abcd"), Horizon: 1})
	frame = frame[:len(frame)-2]                 // drop id bytes
	frame = patchLen(frame, 0)                   // re-stamp a consistent header
	f, err = DecodeFrame(frame, DefaultLimits()) // header is fine; body lies
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOp(f.Payload, DefaultLimits()); !errors.Is(err, ErrTruncated) {
		t.Errorf("over-reading id: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeBatchBounds(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxBatchOps = 2
	ops := []Op{
		{SessionID: []byte("a"), Horizon: 1},
		{SessionID: []byte("b"), Horizon: 1},
		{SessionID: []byte("c"), Horizon: 1},
	}
	frame := AppendBatch(nil, ops)
	f, err := DecodeFrame(frame, lim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatch(f.Payload, lim, nil); !errors.Is(err, ErrOversize) {
		t.Errorf("op count over limit: err = %v, want ErrOversize", err)
	}

	// A count that promises more ops than the payload holds is truncation.
	frame = AppendBatch(nil, ops[:1])
	frame[HeaderLen] = 5 // count low byte
	f, _ = DecodeFrame(frame, DefaultLimits())
	if _, err := DecodeBatch(f.Payload, DefaultLimits(), nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("lying count: err = %v, want ErrTruncated", err)
	}

	// Zero ops is meaningless.
	frame = AppendBatch(nil, nil)
	f, _ = DecodeFrame(frame, DefaultLimits())
	if _, err := DecodeBatch(f.Payload, DefaultLimits(), nil); !errors.Is(err, ErrBadValue) {
		t.Errorf("zero ops: err = %v, want ErrBadValue", err)
	}
}

// TestEncodeReuseNoAlloc pins the pooled-buffer contract: re-encoding into a
// buffer with capacity performs zero allocations, and decode is zero-copy.
func TestEncodeReuseNoAlloc(t *testing.T) {
	ops := []Op{
		{SessionID: []byte("sess-1"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true},
		{SessionID: []byte("sess-2"), Horizon: 3},
	}
	buf := AppendBatch(nil, ops)
	opsBuf := make([]Op, 0, 8)
	lim := DefaultLimits()
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatch(buf[:0], ops)
		f, err := DecodeFrame(buf, lim)
		if err != nil {
			t.Fatal(err)
		}
		opsBuf = opsBuf[:0]
		opsBuf, err = DecodeBatch(f.Payload, lim, opsBuf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encode/decode cycle allocates %v times per op, want 0", allocs)
	}

	// The state-carrying result: a recycled result slice keeps each slot's
	// posterior buffer, so the state rides for no allocation either.
	res := stateResults()
	buf = AppendBatchStateResult(buf[:0], 1, res)
	var resBuf []OpResult
	cycle := func() {
		buf = AppendBatchStateResult(buf[:0], 1, res)
		f, err := DecodeFrame(buf, lim)
		if err != nil {
			t.Fatal(err)
		}
		if resBuf, _, err = DecodeBatchStateResult(f.Payload, lim, resBuf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the first pass sizes the slots
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("state result encode/decode cycle allocates %v times, want 0", allocs)
	}
}
