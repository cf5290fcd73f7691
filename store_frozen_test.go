package cs2p_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cs2p/internal/core"
)

// trainedStoreSHA256 is sha256(Save()) of the store trained on trainGolden's
// training set. Every cell's winning rule, every HMM and the whole
// initial-prediction index feed those bytes, so any change to training — the
// §5.1 rule search included — moves the hash, not only where the golden
// replay happens to route.
const trainedStoreSHA256 = "9bedced63135ba816d16ed02652d079f7415838140107c6700294ec8c69ec73f"

// TestTrainedStoreFrozen trains on the golden training set at one worker and
// at four and requires both saved stores to hash to trainedStoreSHA256.
func TestTrainedStoreFrozen(t *testing.T) {
	_, train, _, ecfg, _ := trainGolden(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			cfg := ecfg
			cfg.Parallelism = workers
			eng, err := core.Train(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := eng.Store().Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != trainedStoreSHA256 {
				t.Errorf("trained store sha256 %s, want %s", got, trainedStoreSHA256)
			}
		})
	}
}
