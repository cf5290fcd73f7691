package httpapi

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"

	"cs2p/internal/engine"
)

// maxPosteriorLen bounds an imported posterior's length. Real models have a
// handful of hidden states; anything near this cap is a malformed or hostile
// payload, rejected before it can allocate per-session state.
const maxPosteriorLen = 4096

// DrainRequest toggles the replica's administrative drain flag.
type DrainRequest struct {
	Draining bool `json:"draining"`
}

// handleSessionStateGet exports a live session's exact filter state. The
// session keeps serving; the export is a consistent snapshot.
func (s *Server) handleSessionStateGet(w http.ResponseWriter, r *http.Request) {
	if s.sessionState == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "session state transfer not supported"})
		return
	}
	id := r.PathValue("id")
	if !s.validSessionID(w, len(id)) {
		return
	}
	st, err := s.sessionState.ExportSession(id)
	if err != nil {
		WriteJSON(w, backendStatus(err, http.StatusInternalServerError), ErrorBody{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleSessionStatePut installs a session from its state under this
// backend's model — the primary recovery path, so the payload is treated as
// hostile. The status code is the caller's signal: 409 means the
// model-identity guard refused the state (start the session afresh), 400
// means the payload itself is unusable.
func (s *Server) handleSessionStatePut(w http.ResponseWriter, r *http.Request) {
	importer, ok := s.svc.(SessionImporter)
	if !ok {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "session state transfer not supported"})
		return
	}
	id := r.PathValue("id")
	if !s.validSessionID(w, len(id)) {
		return
	}
	var st engine.SessionState
	if !s.DecodeJSON(w, r, &st) {
		return
	}
	if st.SessionID == "" {
		st.SessionID = id
	} else if st.SessionID != id {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "session_id in payload does not match URL"})
		return
	}
	if !s.validFeatures(w, st.Features) {
		return
	}
	// The posterior feeds the HMM filter directly; bound and sanity-check it
	// here so a hostile payload is rejected with a 400 before the engine's
	// own guards (which the caller would misread as a model mismatch).
	if len(st.Posterior) == 0 || len(st.Posterior) > maxPosteriorLen {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("posterior must have between 1 and %d entries", maxPosteriorLen)})
		return
	}
	if st.Epoch < 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "epoch must be non-negative"})
		return
	}
	if st.LastOneStep != nil && (math.IsNaN(*st.LastOneStep) || math.IsInf(*st.LastOneStep, 0)) {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "last_one_step must be finite"})
		return
	}
	if len(st.Captured) > MaxIngestEpochs {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("captured exceeds %d epochs", MaxIngestEpochs)})
		return
	}
	if slices.ContainsFunc(st.Captured, badMbps) {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("captured values must be finite and in [0, %g]", MaxObservedMbps)})
		return
	}
	if err := importer.ImportSession(st); err != nil {
		switch {
		case errors.Is(err, engine.ErrSessionStateSchema), errors.Is(err, engine.ErrSessionStateModelMismatch):
			WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
		case errors.Is(err, engine.ErrInvalidSessionState):
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
		default:
			// Only a routing backend gets here: its replicas refused (their
			// 4xx passes through) or none could be reached.
			WriteJSON(w, backendStatus(err, http.StatusBadGateway), ErrorBody{Error: err.Error()})
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionStateDelete forgets a session without recording a QoE log —
// the drain coordinator calls it on the source after a successful import so
// the session is not double-counted.
func (s *Server) handleSessionStateDelete(w http.ResponseWriter, r *http.Request) {
	if s.sessionState == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "session state transfer not supported"})
		return
	}
	id := r.PathValue("id")
	if !s.validSessionID(w, len(id)) {
		return
	}
	if !s.sessionState.ForgetSession(id) {
		WriteJSON(w, http.StatusNotFound, ErrorBody{Error: engine.ErrUnknownSession.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleAdminDrain toggles the administrative drain flag; /v1/healthz
// reflects it as "draining" with the remaining session count.
func (s *Server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	if s.drain == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "drain not supported"})
		return
	}
	var req DrainRequest
	if !s.DecodeJSON(w, r, &req) {
		return
	}
	s.drain.SetDraining(req.Draining)
	w.WriteHeader(http.StatusNoContent)
}
