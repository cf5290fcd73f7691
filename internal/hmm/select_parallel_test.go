package hmm

import (
	"context"
	"math"
	"testing"
)

// TestSelectStateCountParallelMatchesSequential verifies the CV fan-out
// reduces fold scores in fold order, so the winning state count and score
// are identical at every parallelism level.
func TestSelectStateCountParallelMatchesSequential(t *testing.T) {
	truth := threeStateModel()
	seqs := sampleSequences(truth, 11, 16, 60)

	cfg := DefaultTrainConfig()
	cfg.MaxIters = 10
	cfg.Parallelism = 1
	seqN, seqErr, err := SelectStateCount(seqs, []int{2, 3, 4}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	parN, parErr, err := SelectStateCount(seqs, []int{2, 3, 4}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seqN != parN || seqErr != parErr {
		t.Fatalf("sequential chose N=%d err=%v, parallel N=%d err=%v", seqN, seqErr, parN, parErr)
	}
}

func TestSelectStateCountCtxCancelled(t *testing.T) {
	truth := threeStateModel()
	seqs := sampleSequences(truth, 12, 8, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultTrainConfig()
	cfg.MaxIters = 5
	if _, _, err := SelectStateCountCtx(ctx, seqs, []int{2, 3}, 2, cfg); err == nil {
		t.Fatal("cancelled context should abort cross-validation")
	}
}

func TestRelImprovement(t *testing.T) {
	cases := []struct {
		prev, cur, want float64
	}{
		{-100, -90, 0.1},               // 10% likelihood improvement
		{0.5, 0.4, -0.1},               // |prev| < 1 normalizes by 1
		{-0.5, -0.6, -0.1},             // same, negative domain
		{math.Inf(1), 2, math.Inf(-1)}, // first candidate always wins
	}
	for _, c := range cases {
		if got := relImprovement(c.prev, c.cur); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("relImprovement(%v, %v) = %v, want %v", c.prev, c.cur, got, c.want)
		}
	}
}
