// Package registry is the on-disk versioned model-artifact store separating
// offline training from online serving (paper §5.3: the Prediction Engine
// ships compact models to video servers on a daily cadence). Every published
// version is an immutable directory `v<N>/` holding the model payload and a
// self-describing manifest; publishes are atomic (write temp dir → fsync →
// rename), so a reader never observes a half-written version, even across
// processes. Versions only ever increase; rollback is "install an older
// version in the server", never "rewrite the registry".
package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cs2p/internal/core"
)

const (
	modelFile    = "model.json"
	manifestFile = "manifest.json"
	versionPref  = "v"
	tempPref     = ".tmp-"
)

// Sentinel errors callers branch on.
var (
	// ErrEmpty: the registry holds no published versions yet.
	ErrEmpty = errors.New("registry: no published versions")
	// ErrNotFound: the requested version does not exist.
	ErrNotFound = errors.New("registry: version not found")
)

// Entry is one published version's metadata (List output; the admin API
// serves it).
type Entry struct {
	Version  uint64
	Manifest core.Manifest
}

// Registry manages one registry directory. The mutex serializes publishes
// within a process; across processes the version-directory rename is the
// compare-and-swap (renaming onto an existing version fails), so two
// publishers can never both claim the same version number.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// Open ensures the registry directory exists and returns the handle.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	return &Registry{dir: dir}, nil
}

// Versions returns all published version numbers, ascending.
func (r *Registry) Versions() ([]uint64, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading %s: %w", r.dir, err)
	}
	var out []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, versionPref) {
			continue
		}
		v, err := strconv.ParseUint(name[len(versionPref):], 10, 64)
		if err != nil || v == 0 {
			continue // stray directory, not a version
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// LatestVersion returns the highest published version, or ErrEmpty.
func (r *Registry) LatestVersion() (uint64, error) {
	vs, err := r.Versions()
	if err != nil {
		return 0, err
	}
	if len(vs) == 0 {
		return 0, ErrEmpty
	}
	return vs[len(vs)-1], nil
}

func (r *Registry) versionDir(v uint64) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s%d", versionPref, v))
}

// Get loads and fully verifies one version: manifest valid, payload matching
// the checksum, model store structurally sound. A tampered or truncated
// artifact returns a typed error from core (never a panic, nothing partially
// loaded).
func (r *Registry) Get(version uint64) (*core.Artifact, error) {
	vdir := r.versionDir(version)
	manifestJSON, err := os.ReadFile(filepath.Join(vdir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: v%d", ErrNotFound, version)
		}
		return nil, fmt.Errorf("registry: reading v%d manifest: %w", version, err)
	}
	modelJSON, err := os.ReadFile(filepath.Join(vdir, modelFile))
	if err != nil {
		return nil, fmt.Errorf("registry: reading v%d model: %w", version, err)
	}
	a, err := core.LoadArtifact(manifestJSON, modelJSON)
	if err != nil {
		return nil, fmt.Errorf("registry: v%d: %w", version, err)
	}
	if a.Manifest.Version != version {
		return nil, fmt.Errorf("registry: v%d: %w: manifest claims version %d",
			version, core.ErrInvalidManifest, a.Manifest.Version)
	}
	return a, nil
}

// Latest loads the newest version (ErrEmpty when none exists).
func (r *Registry) Latest() (*core.Artifact, error) {
	v, err := r.LatestVersion()
	if err != nil {
		return nil, err
	}
	return r.Get(v)
}

// List returns every published version's manifest, ascending by version.
// Versions whose manifest cannot be read or parsed are skipped (a concurrent
// publisher's in-flight rename, or a corrupted entry, must not break the
// admin listing for everything else).
func (r *Registry) List() ([]Entry, error) {
	vs, err := r.Versions()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(vs))
	for _, v := range vs {
		a, err := r.Get(v)
		if err != nil {
			continue
		}
		out = append(out, Entry{Version: v, Manifest: a.Manifest})
	}
	return out, nil
}

// Publish serializes the store, assigns the next version number, and
// atomically installs `v<N>/` via write-temp → fsync → rename. If another
// publisher claims the version first the rename fails and Publish retries
// with a fresh number. Returns the published manifest.
func (r *Registry) Publish(ms *core.ModelStore, meta core.TrainingMeta) (core.Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf bytes.Buffer
	if err := ms.Save(&buf); err != nil {
		return core.Manifest{}, fmt.Errorf("registry: serializing model: %w", err)
	}
	modelJSON := buf.Bytes()
	const maxAttempts = 16
	for attempt := 0; attempt < maxAttempts; attempt++ {
		latest, err := r.LatestVersion()
		if err != nil && !errors.Is(err, ErrEmpty) {
			return core.Manifest{}, err
		}
		version := latest + 1
		m := core.NewManifest(version, modelJSON, meta)
		manifestJSON, err := manifestBytes(m)
		if err != nil {
			return core.Manifest{}, err
		}
		tmp, err := os.MkdirTemp(r.dir, tempPref)
		if err != nil {
			return core.Manifest{}, fmt.Errorf("registry: creating temp dir: %w", err)
		}
		if err := writeFileSync(filepath.Join(tmp, modelFile), modelJSON); err != nil {
			os.RemoveAll(tmp)
			return core.Manifest{}, err
		}
		if err := writeFileSync(filepath.Join(tmp, manifestFile), manifestJSON); err != nil {
			os.RemoveAll(tmp)
			return core.Manifest{}, err
		}
		if err := os.Rename(tmp, r.versionDir(version)); err != nil {
			// Version claimed by a concurrent publisher — retry with the
			// next number.
			os.RemoveAll(tmp)
			continue
		}
		syncDir(r.dir)
		return m, nil
	}
	return core.Manifest{}, fmt.Errorf("registry: publish lost the version race %d times", maxAttempts)
}

// Prune removes all but the newest keep versions. keep <= 0 is a no-op
// (never delete everything by accident). Returns the pruned version numbers.
func (r *Registry) Prune(keep int) ([]uint64, error) {
	if keep <= 0 {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.Versions()
	if err != nil {
		return nil, err
	}
	if len(vs) <= keep {
		return nil, nil
	}
	doomed := vs[:len(vs)-keep]
	var pruned []uint64
	for _, v := range doomed {
		if err := os.RemoveAll(r.versionDir(v)); err != nil {
			return pruned, fmt.Errorf("registry: pruning v%d: %w", v, err)
		}
		pruned = append(pruned, v)
	}
	return pruned, nil
}

func manifestBytes(m core.Manifest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // humans read manifests during incidents
	if err := enc.Encode(m); err != nil {
		return nil, fmt.Errorf("registry: serializing manifest: %w", err)
	}
	return buf.Bytes(), nil
}

// writeFileSync writes data and fsyncs before closing — the artifact must be
// durable before the rename makes it visible.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("registry: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("registry: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("registry: closing %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so the rename itself is durable. Best-effort:
// some filesystems refuse directory fsync, and losing only the rename on
// power failure just means the version republishes.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
