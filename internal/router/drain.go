package router

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
)

// DrainResult tallies one drain's per-session handoff outcomes.
type DrainResult struct {
	// Warm sessions moved with exact filter state (bit-identical
	// predictions on the new home).
	Warm int `json:"warm"`
	// Replay sessions were rebuilt from their observation windows (the
	// source was dead, refused export, or the target's model guard refused
	// the state).
	Replay int `json:"replay"`
	// Failed sessions could not be moved at all; they stay desynced and
	// recover lazily on their next operation.
	Failed int `json:"failed"`
}

// handoffOutcome classifies one session's drain handoff.
type handoffOutcome int

const (
	handoffSkipped handoffOutcome = iota // not homed on the source anymore
	handoffWarm
	handoffReplay
	handoffFailed
)

// AddReplica admits a new member. The name must be a validated base URL
// (ValidateReplicaURL); the new member starts Healthy and is probed once
// synchronously so its model version is known before the first session
// lands on it.
func (rt *Router) AddReplica(ctx context.Context, name string) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return fmt.Errorf("%w: empty replica name", ErrNotMember)
	}
	rep := &replica{name: name, client: rt.newClient(name), probe: rt.newProbe(name)}
	rt.mu.Lock()
	err := rt.mem.addLocked(rep)
	rt.mu.Unlock()
	if err != nil {
		return err
	}
	rt.m.ensureReplica(name)
	rt.m.setState(name, StateHealthy)
	rt.refreshReplicaCounts()
	rt.logf("router: replica %s joined", name)
	rt.probeOne(ctx, rep)
	return nil
}

// RemoveReplica evicts a member. Sessions still homed on it recover
// lazily: their next operation finds the home gone, desyncs, and replays
// onto the new ring — the right call for removal, which usually means the
// replica is untrusted or already gone. For a graceful exit, DrainReplica
// first.
func (rt *Router) RemoveReplica(name string) error {
	rt.mu.Lock()
	err := rt.mem.removeLocked(name)
	rt.mu.Unlock()
	if err != nil {
		return err
	}
	rt.refreshReplicaCounts()
	rt.logf("router: replica %s removed", name)
	return nil
}

// DrainReplica marks a member Draining and proactively hands every session
// it homes off to a ring successor: warm (exact exported filter state)
// when the source answers and a target accepts it, replay otherwise. The
// member stays in the ring — Draining just excludes it from new-session
// placement — so the operator can watch its healthz session count reach
// zero before RemoveReplica.
func (rt *Router) DrainReplica(ctx context.Context, name string) (DrainResult, error) {
	rt.mu.Lock()
	rep := rt.mem.replicas[name]
	if rep == nil {
		rt.mu.Unlock()
		return DrainResult{}, fmt.Errorf("%w: %s", ErrNotMember, name)
	}
	from := rep.health.state
	rep.adminDrained = true
	if from != StateDraining && from != StateDown {
		rep.health.state = StateDraining
		rep.health.fails, rep.health.successes = 0, 0
		rep.health.since = rt.now()
	}
	type pair struct {
		id   string
		sess *routedSession
	}
	resident := make([]pair, 0, len(rt.sessions))
	for id, sess := range rt.sessions {
		resident = append(resident, pair{id, sess})
	}
	rt.mu.Unlock()
	if from != StateDraining && from != StateDown {
		rt.m.setState(name, StateDraining)
		rt.refreshReplicaCounts()
		rt.logf("router: replica %s %s -> draining (admin)", name, from)
	}
	// Mirror the drain onto the replica itself (best effort): its healthz
	// then reports "draining" to anything else watching it.
	_ = rep.client.SetDraining(ctx, true)
	// Sorted order makes drain-under-load runs deterministic.
	sort.Slice(resident, func(i, j int) bool { return resident[i].id < resident[j].id })
	var res DrainResult
	for _, p := range resident {
		switch rt.handoffSession(ctx, rep, p.id, p.sess) {
		case handoffWarm:
			res.Warm++
		case handoffReplay:
			res.Replay++
		case handoffFailed:
			res.Failed++
		}
	}
	rt.logf("router: drained %s: %d warm, %d replayed, %d failed", name, res.Warm, res.Replay, res.Failed)
	return res, nil
}

// UndrainReplica cancels an administrative drain, returning the member to
// Healthy (sessions already moved stay moved; the replica simply takes new
// placements again).
func (rt *Router) UndrainReplica(ctx context.Context, name string) error {
	rt.mu.Lock()
	rep := rt.mem.replicas[name]
	if rep == nil {
		rt.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotMember, name)
	}
	rep.adminDrained = false
	from := rep.health.state
	if from == StateDraining {
		rep.health.state = StateHealthy
		rep.health.fails, rep.health.successes = 0, 0
		rep.health.since = rt.now()
	}
	rt.mu.Unlock()
	if from == StateDraining {
		rt.m.setState(name, StateHealthy)
		rt.refreshReplicaCounts()
		rt.logf("router: replica %s draining -> healthy (undrain)", name)
	}
	_ = rep.client.SetDraining(ctx, false)
	return nil
}

// handoffSession moves one session off a draining source. The warm path
// pulls exact filter state from the live source and pushes it to the first
// willing ring successor — bit-identical, no replay approximation. Replay
// is the fallback when the source cannot answer (dead mid-drain) or every
// target's model guard refuses the state (mid-rollout generation skew).
// Holding sess.mu across the whole move keeps the transfer atomic with
// respect to the session's own observation stream.
func (rt *Router) handoffSession(ctx context.Context, source *replica, id string, sess *routedSession) handoffOutcome {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	rt.mu.Lock()
	current := rt.sessions[id] == sess
	rt.mu.Unlock()
	if !current || sess.home != source.name {
		return handoffSkipped
	}
	if !sess.desync {
		if st, err := source.client.ExportSession(ctx, id); err == nil {
			for _, rep := range rt.failoverCandidates(id, sess.version) {
				if rep.name == source.name {
					continue
				}
				if s := rt.stateOf(rep); s == StateDown || s == StateDraining {
					continue
				}
				switch oc, _ := rt.call(rep, func(c *httpapi.Client) error { return c.ImportSession(ctx, st) }); oc {
				case callRejected:
					// The target understood and refused (model guard or no
					// transfer support). Other targets serve the same model,
					// so the warm path is off the table — replay rebuilds
					// state under whatever model the new home runs.
					goto replay
				case callFailed:
					continue
				}
				fromHome := sess.home
				sess.home = rep.name
				sess.version = rt.versionOf(rep)
				sess.desync = false
				rt.handoff(handoffWarm)
				// Forget on the source so its healthz session count drops and
				// the session is not double-counted; best effort — a dead
				// source forgets everything anyway.
				_ = source.client.ForgetSession(ctx, id)
				rt.logf("router: session %s handed off warm %s -> %s", id, fromHome, rep.name)
				return handoffWarm
			}
		}
	}
replay:
	// Source dead, state refused, or already desynced: rebuild from the
	// replay window on the best candidate.
	if res := rt.migrate(sess, &engine.BatchOp{SessionID: []byte(id), Horizon: 1}); res.Code != engine.BatchOK {
		rt.handoff(handoffFailed)
		rt.logf("router: session %s handoff failed: no usable replica", id)
		return handoffFailed
	}
	rt.handoff(handoffReplay)
	return handoffReplay
}

// handoff records one handoff outcome on both the plain counters (for
// harness assertions) and the metrics registry.
func (rt *Router) handoff(o handoffOutcome) {
	switch o {
	case handoffWarm:
		rt.warmN.Add(1)
		rt.m.handoff("warm")
	case handoffReplay:
		rt.replayN.Add(1)
		rt.m.handoff("replay")
	case handoffFailed:
		rt.failedN.Add(1)
		rt.m.handoff("failed")
	}
}

// HandoffOutcomes reports the cumulative drain-handoff tallies — the chaos
// harness asserts warm handoffs happen (and replays don't) on planned
// drains with live sources.
func (rt *Router) HandoffOutcomes() (warm, replay, failed uint64) {
	return rt.warmN.Load(), rt.replayN.Load(), rt.failedN.Load()
}
