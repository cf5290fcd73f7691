package router

import (
	"errors"
	"net/http"

	"cs2p/internal/httpapi"
)

// ReplicaAdminRequest is the POST /v1/admin/replicas payload: one
// membership action against one replica.
type ReplicaAdminRequest struct {
	// Action is one of "add", "remove", "drain", "undrain".
	Action string `json:"action"`
	// Replica is the member's base URL ("http://10.0.0.1:8642").
	Replica string `json:"replica"`
}

// ReplicaInfo is one member's row in the admin listing.
type ReplicaInfo struct {
	Name         string `json:"name"`
	State        string `json:"state"`
	ModelVersion uint64 `json:"model_version,omitempty"`
	// Sessions counts the routed sessions currently homed on this member.
	Sessions int `json:"sessions"`
}

// ReplicaAdminResponse answers both admin routes: the member set after the
// action, plus the drain tally when the action was a drain.
type ReplicaAdminResponse struct {
	Replicas []ReplicaInfo `json:"replicas"`
	Drain    *DrainResult  `json:"drain,omitempty"`
}

// replicaInfos snapshots the member set with per-member session counts.
func (rt *Router) replicaInfos() []ReplicaInfo {
	rt.mu.Lock()
	type row struct {
		state   State
		version uint64
	}
	members := make(map[string]row, len(rt.mem.replicas))
	order := append([]string(nil), rt.mem.order...)
	for n, rep := range rt.mem.replicas {
		members[n] = row{state: rep.health.State(), version: rep.version}
	}
	sessions := make([]*routedSession, 0, len(rt.sessions))
	for _, sess := range rt.sessions {
		sessions = append(sessions, sess)
	}
	rt.mu.Unlock()
	// homeName takes each session's own lock, so count outside rt.mu (lock
	// order is sess.mu -> rt.mu, never the reverse).
	homes := make(map[string]int, len(members))
	for _, sess := range sessions {
		homes[sess.homeName()]++
	}
	out := make([]ReplicaInfo, 0, len(order))
	for _, n := range order {
		r := members[n]
		out = append(out, ReplicaInfo{Name: n, State: r.state.String(), ModelVersion: r.version, Sessions: homes[n]})
	}
	return out
}

// handleListReplicas serves GET /v1/admin/replicas.
func (rt *Router) handleListReplicas(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, ReplicaAdminResponse{Replicas: rt.replicaInfos()})
}

// handleAdminReplicas serves POST /v1/admin/replicas: add, remove, drain,
// or undrain one member. Errors map the membership sentinels onto statuses
// (404 not a member, 409 already a member / last replica, 400 everything
// malformed).
func (rt *Router) handleAdminReplicas(w http.ResponseWriter, r *http.Request) {
	var req ReplicaAdminRequest
	if !rt.srvOnce().DecodeJSON(w, r, &req) {
		return
	}
	var (
		drain *DrainResult
		err   error
	)
	switch req.Action {
	case "add":
		var name string
		name, err = ValidateReplicaURL(req.Replica)
		if err != nil {
			httpapi.WriteJSON(w, http.StatusBadRequest, httpapi.ErrorBody{Error: err.Error()})
			return
		}
		err = rt.AddReplica(r.Context(), name)
	case "remove":
		err = rt.RemoveReplica(req.Replica)
	case "drain":
		var res DrainResult
		res, err = rt.DrainReplica(r.Context(), req.Replica)
		if err == nil {
			drain = &res
		}
	case "undrain":
		err = rt.UndrainReplica(r.Context(), req.Replica)
	default:
		httpapi.WriteJSON(w, http.StatusBadRequest, httpapi.ErrorBody{Error: `action must be "add", "remove", "drain", or "undrain"`})
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrNotMember):
			status = http.StatusNotFound
		case errors.Is(err, ErrAlreadyMember), errors.Is(err, ErrLastReplica):
			status = http.StatusConflict
		}
		httpapi.WriteJSON(w, status, httpapi.ErrorBody{Error: err.Error()})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, ReplicaAdminResponse{Replicas: rt.replicaInfos(), Drain: drain})
}
