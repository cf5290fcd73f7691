package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"cs2p/internal/core"
)

// FuzzLoadArtifact mutates the (manifest, model) pair a registry Get reads
// off disk. The contract: any corruption — truncated files, bit flips,
// trailing garbage, mismatched checksums — yields an error, never a panic
// and never a half-installed artifact.
func FuzzLoadArtifact(f *testing.F) {
	var modelBuf bytes.Buffer
	if err := testStore(2.5).Save(&modelBuf); err != nil {
		f.Fatal(err)
	}
	modelJSON := modelBuf.Bytes()
	m := core.NewManifest(1, modelJSON, testMeta(42))
	manifestJSON, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifestJSON, modelJSON)
	f.Add(manifestJSON[:len(manifestJSON)/2], modelJSON)                // truncated manifest
	f.Add(manifestJSON, modelJSON[:len(modelJSON)/2])                   // truncated payload
	f.Add(append([]byte(nil), append(manifestJSON, '!')...), modelJSON) // trailing garbage
	flipped := append([]byte(nil), modelJSON...)
	flipped[len(flipped)/3] ^= 0x08
	f.Add(manifestJSON, flipped) // bit-flipped payload
	// A payload written by the build before the routes table was dropped
	// (must keep loading) and one with cluster models but no index (must not).
	for _, name := range []string{"store_written_by_parent.json", "store_models_without_index.json"} {
		b, err := os.ReadFile("../core/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		mj, err := json.Marshal(core.NewManifest(1, b, testMeta(42)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mj, b)
	}
	f.Add([]byte("{}"), []byte("{}"))
	f.Fuzz(func(t *testing.T, manifest, model []byte) {
		a, err := core.LoadArtifact(manifest, model)
		if err != nil {
			if a != nil {
				t.Fatal("error return must not hand back an artifact")
			}
			return
		}
		if a.Store == nil {
			t.Fatal("accepted artifact must carry a store")
		}
		if verr := a.Store.Validate(); verr != nil {
			t.Fatalf("accepted artifact fails store validation: %v", verr)
		}
		if verr := a.Manifest.Validate(); verr != nil {
			t.Fatalf("accepted artifact fails manifest validation: %v", verr)
		}
	})
}
