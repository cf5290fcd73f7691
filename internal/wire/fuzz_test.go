package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// typedDecodeErr reports whether err is one of the package's named decode
// errors — the fuzz oracle for "malformed input fails loudly and typed-ly".
func typedDecodeErr(err error) bool {
	for _, want := range []error{
		ErrBadMagic, ErrVersion, ErrUnknownType, ErrTruncated,
		ErrOversize, ErrTrailingData, ErrBadValue,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzWireDecode throws raw bytes at the full decode surface. Oracles:
// no input may panic; every rejection must be a typed error; and any frame
// that decodes must survive a canonical re-encode/re-decode round trip
// bit-identically (so accepted frames have exactly one meaning).
func FuzzWireDecode(f *testing.F) {
	// Canonical frames of every message type.
	f.Add(AppendOp(nil, Op{SessionID: []byte("seed"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true}))
	f.Add(AppendOp(nil, Op{SessionID: []byte("q"), Horizon: 5}))
	f.Add(AppendPrediction(nil, 3.75))
	f.Add(AppendBatch(nil, []Op{
		{SessionID: []byte("a"), ObservedMbps: 1, Horizon: 1, HasObserve: true},
		{SessionID: []byte("b"), Horizon: 2},
	}))
	f.Add(AppendBatchResult(nil, 7, []OpResult{{PredictionMbps: 2}, {Code: OpUnknownSession}}))
	f.Add(AppendError(nil, 400, "bad"))
	f.Add(AppendBatch(nil, []Op{{SessionID: []byte("a"), ObservedMbps: 1, Horizon: 1, HasObserve: true, WantState: true}}))
	f.Add(AppendOp(nil, Op{SessionID: []byte("a"), Horizon: 1, WantState: true}))
	f.Add(AppendBatchStateResult(nil, 7, []OpResult{
		{PredictionMbps: 2, State: State{Posterior: []float64{0.5, 0.5}, LastOneStep: 2, ModelVersion: 3, ModelGeneration: 1, Epoch: 9, Started: true}},
		{Code: OpUnknownSession},
		{PredictionMbps: 1, State: State{Posterior: []float64{1}}},
	}))
	// A state result whose posterior count promises more than the frame holds.
	lying := AppendBatchStateResult(nil, 7, []OpResult{{State: State{Posterior: []float64{1}}}})
	lying[HeaderLen+19], lying[HeaderLen+20] = 0xFF, 0xFF
	f.Add(lying)
	// Hostile shapes: truncation, trailing data, lying lengths, oversize.
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1})
	f.Add([]byte{magic0, magic1, Version, byte(MsgOp), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(append(AppendPrediction(nil, 1), 0x00))
	f.Add([]byte(`{"session_id":"json-at-a-binary-route"}`))
	long := AppendOp(nil, Op{SessionID: bytes.Repeat([]byte("x"), 300), Horizon: 1})
	f.Add(long)
	// Call frames: a start, a body-less DELETE, an empty route, a route
	// length past the frame, and replies with a body, without, and with a
	// status out of range.
	f.Add(AppendCall(nil, "POST /v1/session/start", []byte(`{"session_id":"seed"}`)))
	f.Add(AppendCall(nil, "DELETE /v1/session/a%2Fb/state", nil))
	f.Add(AppendCall(nil, "", []byte("{}")))
	lyingRoute := AppendCall(nil, "POST /v1/log", nil)
	lyingRoute[HeaderLen] = 0xFF
	f.Add(lyingRoute)
	f.Add(AppendCallResult(nil, 200, []byte(`{"initial_prediction_mbps":2.5}`)))
	f.Add(AppendCallResult(nil, 204, nil))
	f.Add(AppendCallResult(nil, 600, nil))

	lim := DefaultLimits()
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, err := DecodeFrame(b, lim)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("untyped frame error %v for %x", err, b)
			}
			return
		}
		switch frame.Type {
		case MsgOp:
			op, err := DecodeOp(frame.Payload, lim)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped op error %v", err)
				}
				return
			}
			// NaN payloads round-trip semantically but their exact bit
			// pattern is not guaranteed across float moves; skip byte
			// canonicality for them (validation rejects NaN upstream).
			if !math.IsNaN(op.ObservedMbps) && !bytes.Equal(AppendOp(nil, op), b) {
				t.Fatalf("op re-encode not canonical for %x", b)
			}
		case MsgPrediction:
			v, err := DecodePrediction(frame.Payload)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped prediction error %v", err)
				}
				return
			}
			if !math.IsNaN(v) && !bytes.Equal(AppendPrediction(nil, v), b) {
				t.Fatalf("prediction re-encode not canonical for %x", b)
			}
		case MsgBatch:
			ops, err := DecodeBatch(frame.Payload, lim, nil)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped batch error %v", err)
				}
				return
			}
			nan := false
			for _, op := range ops {
				nan = nan || math.IsNaN(op.ObservedMbps)
			}
			if !nan && !bytes.Equal(AppendBatch(nil, ops), b) {
				t.Fatalf("batch re-encode not canonical for %x", b)
			}
		case MsgBatchResult:
			res, gen, err := DecodeBatchResult(frame.Payload, lim, nil)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped batch-result error %v", err)
				}
				return
			}
			nan := false
			for _, r := range res {
				nan = nan || math.IsNaN(r.PredictionMbps)
			}
			if !nan && !bytes.Equal(AppendBatchResult(nil, gen, res), b) {
				t.Fatalf("batch-result re-encode not canonical for %x", b)
			}
		case MsgBatchStateResult:
			res, gen, err := DecodeBatchStateResult(frame.Payload, lim, nil)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped batch-state-result error %v", err)
				}
				return
			}
			nan := false
			for _, r := range res {
				nan = nan || math.IsNaN(r.PredictionMbps) || math.IsNaN(r.State.LastOneStep)
				for _, p := range r.State.Posterior {
					nan = nan || math.IsNaN(p)
				}
			}
			if !nan && !bytes.Equal(AppendBatchStateResult(nil, gen, res), b) {
				t.Fatalf("batch-state-result re-encode not canonical for %x", b)
			}
		case MsgError:
			status, msg, err := DecodeError(frame.Payload)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped error-frame error %v", err)
				}
				return
			}
			if !bytes.Equal(AppendError(nil, status, string(msg)), b) {
				t.Fatalf("error re-encode not canonical for %x", b)
			}
		case MsgCall:
			route, body, err := DecodeCall(frame.Payload)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped call error %v", err)
				}
				return
			}
			if !bytes.Equal(AppendCall(nil, string(route), body), b) {
				t.Fatalf("call re-encode not canonical for %x", b)
			}
		case MsgCallResult:
			status, body, err := DecodeCallResult(frame.Payload)
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("untyped call-result error %v", err)
				}
				return
			}
			if !bytes.Equal(AppendCallResult(nil, status, body), b) {
				t.Fatalf("call-result re-encode not canonical for %x", b)
			}
		}
	})
}
