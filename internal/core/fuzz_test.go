package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
)

// tinyStore builds the smallest valid model store by hand: a one-state HMM
// whose prediction is always mean, plus a global median. Used as fuzz seed
// material and by lifecycle tests that need distinguishable models without
// paying for training.
func tinyStore(mean float64) *ModelStore {
	m := &hmm.Model{
		Pi:    []float64{1},
		Trans: &mathx.Matrix{Rows: 1, Cols: 1, Data: []float64{1}},
		Emit:  []mathx.Gaussian{{Mu: mean, Sigma: 0.5}},
	}
	return &ModelStore{
		FullFeatures: []string{"isp"},
		Models:       map[string]StoredModel{},
		Global:       StoredModel{Model: m, InitialMedian: mean},
	}
}

// FuzzLoadModelStore hammers the store loader with mutated inputs. The
// contract under test: corrupt input of any shape yields an error — never a
// panic, and never a store that fails Validate (a half-install).
func FuzzLoadModelStore(f *testing.F) {
	seed, err := json.Marshal(tinyStore(3.5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), "trailing garbage"...))
	f.Add(seed[:len(seed)/2]) // truncation
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip
	f.Add(flipped)
	// A file written by the build before the routes table was dropped (must
	// keep loading) and one with cluster models but no index (must not).
	for _, name := range []string{"testdata/store_written_by_parent.json", "testdata/store_models_without_index.json"} {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"global":{"model":null}}`))
	f.Add([]byte(`{"global":{"model":{"pi":[1],"trans":{"Rows":1,"Cols":1,"Data":[1]},"emit":[{"mu":0,"sigma":-1}]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := LoadModelStore(bytes.NewReader(data))
		if err != nil {
			if ms != nil {
				t.Fatal("error return must not hand back a store")
			}
			return
		}
		// Whatever parsed must be fully valid and bootable.
		if verr := ms.Validate(); verr != nil {
			t.Fatalf("LoadModelStore accepted a store that fails Validate: %v", verr)
		}
		if _, berr := NewEngineFromStore(ms); berr != nil {
			t.Fatalf("validated store failed to boot: %v", berr)
		}
	})
}
