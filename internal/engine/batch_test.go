package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// TestServeBatchMatchesSingleOps pins batch/single parity: the same op
// stream served one call at a time and served as one batch must produce
// bit-identical predictions — batching is an amortization, never a
// behavior change.
func TestServeBatchMatchesSingleOps(t *testing.T) {
	svcA, _ := freshService(t, 1)
	svcB, _ := freshService(t, 4)
	// Two distinct trainings would diverge; train once, install same engine.
	svcB.InstallEngine(svcA.Engine())

	f := trace.Features{ISP: "isp-1", City: "c1"}
	ids := []string{"pa", "pb", "pc"}
	for _, id := range ids {
		ra := svcA.StartSession(id, f, 1000)
		rb := svcB.StartSession(id, f, 1000)
		if ra.InitialPredictionMbps != rb.InitialPredictionMbps {
			t.Fatalf("initial predictions diverge before any op: %v vs %v", ra, rb)
		}
	}

	// An interleaved op stream over the three sessions, observe and predict
	// mixed, plus an unknown session and an invalid observation.
	ops := []BatchOp{
		{SessionID: []byte("pa"), ObservedMbps: 2.0, Horizon: 1, HasObserve: true},
		{SessionID: []byte("pb"), ObservedMbps: 1.5, Horizon: 1, HasObserve: true},
		{SessionID: []byte("pa"), Horizon: 3},
		{SessionID: []byte("pc"), ObservedMbps: 4.0, Horizon: 2, HasObserve: true},
		{SessionID: []byte("no-such"), ObservedMbps: 1.0, Horizon: 1, HasObserve: true},
		{SessionID: []byte("pb"), ObservedMbps: math.Inf(1), Horizon: 1, HasObserve: true},
		{SessionID: []byte("pa"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true},
		{SessionID: []byte("pb"), Horizon: 1},
	}

	// Reference run: each op through the single-op API on svcA.
	want := make([]BatchResult, len(ops))
	for i, op := range ops {
		id := string(op.SessionID)
		if op.HasObserve && (math.IsInf(op.ObservedMbps, 0) || math.IsNaN(op.ObservedMbps) || op.ObservedMbps < 0) {
			want[i] = BatchResult{Code: wire.OpInvalid}
			continue
		}
		var (
			pred float64
			err  error
		)
		if op.HasObserve {
			pred, err = svcA.ObserveAndPredict(id, op.ObservedMbps, op.Horizon)
		} else {
			pred, err = svcA.Predict(id, op.Horizon)
		}
		if err != nil {
			want[i] = BatchResult{Code: wire.OpUnknownSession}
			continue
		}
		want[i] = BatchResult{PredictionMbps: pred, Code: wire.OpOK}
	}

	res := make([]BatchResult, len(ops))
	gen := svcB.ServeBatch(ops, res)
	if gen != svcB.ModelGeneration() {
		t.Errorf("batch generation = %d, want %d", gen, svcB.ModelGeneration())
	}
	for i := range ops {
		if res[i].Code != want[i].Code || res[i].PredictionMbps != want[i].PredictionMbps || len(res[i].State.Posterior) != 0 {
			t.Errorf("op %d: batch %+v != single-op %+v", i, res[i], want[i])
		}
	}
}

// TestServeBatchConcurrent is the shared-session race test: many goroutines
// serve batches whose ops span the SAME session set, under -race. Per-op
// predictions are nondeterministic (interleaving decides observation order)
// but every op must succeed, stay finite, and corrupt nothing.
func TestServeBatchConcurrent(t *testing.T) {
	svc, _ := freshService(t, 4)
	f := trace.Features{ISP: "isp-1", City: "c1"}
	const sessions = 6
	ids := make([][]byte, sessions)
	for i := range ids {
		id := fmt.Sprintf("shared-%d", i)
		svc.StartSession(id, f, 1000)
		ids[i] = []byte(id)
	}
	const (
		workers = 8
		batches = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]BatchOp, 2*sessions)
			res := make([]BatchResult, len(ops))
			for b := 0; b < batches; b++ {
				// Every batch interleaves an observe and a predict op for
				// every shared session, so each session is hammered by all
				// workers at once.
				for i := 0; i < sessions; i++ {
					ops[2*i] = BatchOp{SessionID: ids[i], ObservedMbps: 1.5 + float64((w+b+i)%5), Horizon: 1, HasObserve: true}
					ops[2*i+1] = BatchOp{SessionID: ids[i], Horizon: 2}
				}
				svc.ServeBatch(ops, res)
				for i, r := range res {
					if r.Code != wire.OpOK {
						t.Errorf("worker %d batch %d op %d: code %d", w, b, i, r.Code)
						return
					}
					if math.IsNaN(r.PredictionMbps) || math.IsInf(r.PredictionMbps, 0) || r.PredictionMbps <= 0 {
						t.Errorf("worker %d batch %d op %d: prediction %v", w, b, i, r.PredictionMbps)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := svc.ActiveSessions(); got != sessions {
		t.Errorf("active sessions = %d, want %d", got, sessions)
	}
}

// TestServeBatchZeroAlloc pins the tentpole's engine-side contract: the
// steady-state batch path (registered sessions, valid ops, reused result
// slice) allocates nothing per op.
func TestServeBatchZeroAlloc(t *testing.T) {
	svc, _ := freshService(t, 1)
	f := trace.Features{ISP: "isp-1", City: "c1"}
	svc.StartSession("za-1", f, 1000)
	svc.StartSession("za-2", f, 1000)
	ops := []BatchOp{
		{SessionID: []byte("za-1"), ObservedMbps: 2.0, Horizon: 1, HasObserve: true},
		{SessionID: []byte("za-2"), Horizon: 3},
		{SessionID: []byte("za-1"), ObservedMbps: 2.5, Horizon: 1, HasObserve: true},
		{SessionID: []byte("missing"), Horizon: 1},
	}
	res := make([]BatchResult, len(ops))
	allocs := testing.AllocsPerRun(200, func() {
		svc.ServeBatch(ops, res)
	})
	if allocs != 0 {
		t.Errorf("ServeBatch allocates %v per batch, want 0", allocs)
	}

	// Carrying state costs nothing either once the recycled slots have a
	// posterior buffer: the first pass sizes them, every later one reuses.
	ops[0].WantState, ops[2].WantState = true, true
	svc.ServeBatch(ops, res)
	if allocs := testing.AllocsPerRun(200, func() { svc.ServeBatch(ops, res) }); allocs != 0 {
		t.Errorf("ServeBatch with WantState allocates %v per batch, want 0", allocs)
	}
	if len(res[0].State.Posterior) == 0 || len(res[1].State.Posterior) != 0 {
		t.Errorf("state filled for the wrong ops: %+v / %+v", res[0].State, res[1].State)
	}
}

// TestServeBatchStateMatchesExport: the state an op asks for is the session's
// ExportSession as of that op — same posterior bits, epoch, pending
// prediction and model identity — so importing it elsewhere is exactly the
// warm handoff the export path already pins.
func TestServeBatchStateMatchesExport(t *testing.T) {
	svc, test := freshService(t, 1) // metrics attached, so the pending 1-step prediction advances
	s := test.Sessions[1]
	svc.StartSession("st-1", s.Features, s.StartUnix)
	res := make([]BatchResult, 1)
	for _, w := range s.Throughput[:6] {
		svc.ServeBatch([]BatchOp{{SessionID: []byte("st-1"), ObservedMbps: w, Horizon: 2, HasObserve: true, WantState: true}}, res)
		if res[0].Code != wire.OpOK {
			t.Fatalf("code %d", res[0].Code)
		}
		exp, err := svc.ExportSession("st-1")
		if err != nil {
			t.Fatal(err)
		}
		got := res[0].State
		if !got.Started || int(got.Epoch) != exp.Epoch || got.ModelVersion != exp.ModelVersion || got.ModelGeneration != exp.ModelGeneration ||
			exp.LastOneStep == nil || got.LastOneStep != *exp.LastOneStep || len(got.Posterior) != len(exp.Posterior) {
			t.Fatalf("state %+v does not match export %+v", got, exp)
		}
		for i := range got.Posterior {
			if got.Posterior[i] != exp.Posterior[i] {
				t.Fatalf("posterior[%d] = %v, export %v", i, got.Posterior[i], exp.Posterior[i])
			}
		}
	}
}
