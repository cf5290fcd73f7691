package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ArtifactSchemaVersion is the manifest schema this build reads and writes.
// Loaders reject any other value with ErrUnknownSchema: silently reinterpreting
// a future schema is how half-compatible models get installed.
const ArtifactSchemaVersion = 1

// Typed artifact-load failures. Callers (the registry, the serving engine)
// branch on these to distinguish corruption from incompatibility; none of
// them is ever a panic.
var (
	// ErrChecksumMismatch: the model payload does not hash to the
	// manifest's SHA-256 — the artifact was corrupted or tampered with.
	ErrChecksumMismatch = errors.New("core: artifact checksum mismatch")
	// ErrUnknownSchema: the manifest's schema version is not one this
	// build understands.
	ErrUnknownSchema = errors.New("core: unknown artifact schema version")
	// ErrInvalidManifest: the manifest is structurally unsound (missing
	// checksum, zero version, non-finite metrics).
	ErrInvalidManifest = errors.New("core: invalid artifact manifest")
)

// HoldoutMetrics summarizes a model's prediction quality on a held-out slice
// of the training trace — the evidence a promotion gate weighs before letting
// the model serve (§6 evaluates exactly these absolute-percentage-error
// quantiles).
type HoldoutMetrics struct {
	// Sessions and Epochs are the holdout slice's size.
	Sessions int `json:"sessions"`
	Epochs   int `json:"epochs"`
	// MedianAPE and P90APE are quantiles of per-epoch absolute percentage
	// error over the holdout replay (1.0 = 100%).
	MedianAPE float64 `json:"median_ape"`
	P90APE    float64 `json:"p90_ape"`
}

// Valid reports whether the metrics are usable for gating (finite,
// non-negative, computed over a non-empty slice).
func (h HoldoutMetrics) Valid() bool {
	return h.Epochs > 0 &&
		!math.IsNaN(h.MedianAPE) && !math.IsInf(h.MedianAPE, 0) && h.MedianAPE >= 0 &&
		!math.IsNaN(h.P90APE) && !math.IsInf(h.P90APE, 0) && h.P90APE >= 0
}

// TrainingMeta is what the trainer knows about an artifact at publish time.
// TrainedAtUnix is injected by the caller (the registry never reads the
// clock) so publishes are reproducible and testable.
type TrainingMeta struct {
	TrainedAtUnix int64          `json:"trained_at_unix"`
	TraceSessions int            `json:"trace_sessions"`
	TraceEpochs   int            `json:"trace_epochs"`
	Clusters      int            `json:"clusters"`
	Holdout       HoldoutMetrics `json:"holdout"`
}

// Manifest is the self-describing envelope published next to every model
// payload: enough to verify integrity (SHA256 over the exact model bytes),
// order versions (Version strictly increases per registry), and judge quality
// (Holdout) without parsing the payload.
type Manifest struct {
	SchemaVersion int            `json:"schema_version"`
	Version       uint64         `json:"version"`
	SHA256        string         `json:"sha256"`
	TrainedAtUnix int64          `json:"trained_at_unix"`
	TraceSessions int            `json:"trace_sessions"`
	TraceEpochs   int            `json:"trace_epochs"`
	Clusters      int            `json:"clusters"`
	Holdout       HoldoutMetrics `json:"holdout"`
}

// NewManifest builds the manifest for a model payload. modelJSON must be the
// exact bytes that will be stored (the checksum binds to them).
func NewManifest(version uint64, modelJSON []byte, meta TrainingMeta) Manifest {
	sum := sha256.Sum256(modelJSON)
	return Manifest{
		SchemaVersion: ArtifactSchemaVersion,
		Version:       version,
		SHA256:        hex.EncodeToString(sum[:]),
		TrainedAtUnix: meta.TrainedAtUnix,
		TraceSessions: meta.TraceSessions,
		TraceEpochs:   meta.TraceEpochs,
		Clusters:      meta.Clusters,
		Holdout:       meta.Holdout,
	}
}

// Validate checks the manifest's structural invariants.
func (m Manifest) Validate() error {
	if m.SchemaVersion != ArtifactSchemaVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrUnknownSchema, m.SchemaVersion, ArtifactSchemaVersion)
	}
	if m.Version == 0 {
		return fmt.Errorf("%w: version must be >= 1", ErrInvalidManifest)
	}
	if len(m.SHA256) != hex.EncodedLen(sha256.Size) {
		return fmt.Errorf("%w: malformed sha256 %q", ErrInvalidManifest, m.SHA256)
	}
	if _, err := hex.DecodeString(m.SHA256); err != nil {
		return fmt.Errorf("%w: malformed sha256 %q", ErrInvalidManifest, m.SHA256)
	}
	for _, v := range []float64{m.Holdout.MedianAPE, m.Holdout.P90APE} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: non-finite or negative holdout metric", ErrInvalidManifest)
		}
	}
	return nil
}

// Artifact is a fully verified (manifest, model) pair — the only way a
// deployed model enters the serving path.
type Artifact struct {
	Manifest Manifest
	Store    *ModelStore
}

// LoadArtifact decodes and cross-checks a manifest and model payload:
// manifest valid, payload hashing to the manifest's checksum, payload a fully
// valid model store. Every failure is a typed error and leaves nothing
// installed — corruption anywhere rejects the artifact whole.
func LoadArtifact(manifestJSON, modelJSON []byte) (*Artifact, error) {
	var m Manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil { // refuses trailing data too
		return nil, fmt.Errorf("%w: decoding: %v", ErrInvalidManifest, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(modelJSON)
	if hex.EncodeToString(sum[:]) != m.SHA256 {
		return nil, fmt.Errorf("%w: model payload hashes to %s, manifest says %s",
			ErrChecksumMismatch, hex.EncodeToString(sum[:]), m.SHA256)
	}
	ms, err := LoadModelStore(bytes.NewReader(modelJSON))
	if err != nil {
		return nil, err
	}
	return &Artifact{Manifest: m, Store: ms}, nil
}
