package router

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cs2p/internal/wire"
)

// DrainResult tallies one drain's per-session handoff outcomes.
type DrainResult struct {
	// Warm sessions moved with exact filter state (bit-identical
	// predictions on the new home), source alive or not.
	Warm int `json:"warm"`
	// Failed sessions no other member would take (unreachable, or the model
	// guard refused); they stay put and recover on their next op.
	Failed int `json:"failed"`
}

// AddReplica admits a new member. The name must be a validated base URL
// (ValidateReplicaURL); the new member starts Healthy and is probed once
// synchronously so its model version is known before the first session
// lands on it.
func (rt *Router) AddReplica(ctx context.Context, name string) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return fmt.Errorf("%w: empty replica name", ErrNotMember)
	}
	rep := rt.newReplica(name)
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
// lazily: their next operation finds the home gone and migrates them, state
// intact, onto the new ring — the right call for removal, which usually
// means the replica is untrusted or already gone. For a graceful exit,
// DrainReplica first. The member's streams close: the idle ones now, any in
// use when its call ends.
func (rt *Router) RemoveReplica(name string) error {
	rt.mu.Lock()
	rep := rt.mem.replicas[name]
	err := rt.mem.removeLocked(name)
	rt.mu.Unlock()
	if err != nil {
		return err
	}
	if rep.streams != nil {
		rep.streams.CloseIdleConnections()
	}
	rt.refreshReplicaCounts()
	rt.logf("router: replica %s removed", name)
	return nil
}

// DrainReplica marks a member Draining and proactively migrates every
// session it homes to a ring successor, exact filter state and all. The
// member stays in the ring — Draining just excludes it from new-session
// placement — so the operator can watch its healthz session count reach
// zero before RemoveReplica. Once ctx ends (the admin client left) no further
// session is handed off: the rest stay, exact, on the draining member.
func (rt *Router) DrainReplica(ctx context.Context, name string) (DrainResult, error) {
	rep, err := rt.setDrain(ctx, name, true)
	if err != nil {
		return DrainResult{}, err
	}
	type pair struct {
		id   string
		sess *routedSession
	}
	rt.mu.Lock()
	resident := make([]pair, 0, len(rt.sessions))
	for id, sess := range rt.sessions {
		resident = append(resident, pair{id, sess})
	}
	rt.mu.Unlock()
	// Sorted order makes drain-under-load runs deterministic.
	sort.Slice(resident, func(i, j int) bool { return resident[i].id < resident[j].id })
	var res DrainResult
	for _, p := range resident {
		if ctx.Err() != nil {
			break
		}
		rt.handoffSession(ctx, rep, p.id, p.sess, &res)
	}
	rt.logf("router: drained %s: %d warm, %d failed", name, res.Warm, res.Failed)
	return res, nil
}

// UndrainReplica cancels an administrative drain, returning the member to
// Healthy (sessions already moved stay moved; the replica simply takes new
// placements again).
func (rt *Router) UndrainReplica(ctx context.Context, name string) error {
	_, err := rt.setDrain(ctx, name, false)
	return err
}

// setDrain sets or withdraws a member's standing drain order: Draining on
// (a Down member enters it when it recovers), back to Healthy off. The flag
// is mirrored onto the replica itself, best effort, so its healthz says
// "draining" to anything else watching it.
func (rt *Router) setDrain(ctx context.Context, name string, on bool) (*replica, error) {
	rt.mu.Lock()
	rep := rt.mem.replicas[name]
	if rep == nil {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotMember, name)
	}
	from, to := rep.health.Drain(on, rt.now())
	rt.mu.Unlock()
	rt.moved(name, from, to, " (admin)")
	_ = rep.client.SetDraining(ctx, on)
	return rep, nil
}

// handoffSession moves one session off a draining source, if still homed
// there, and tallies the outcome: the migrate a failover runs, then a
// ForgetSession on the source. While the source still answers, its own
// export is the state migrated — the filter state the router holds anyway,
// plus the online-intake Captured series it does not. Holding sess.mu
// throughout keeps the move atomic against the session's observation stream.
func (rt *Router) handoffSession(ctx context.Context, source *replica, id string, sess *routedSession, tally *DrainResult) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	rt.mu.Lock()
	current := rt.sessions[id] == sess
	rt.mu.Unlock()
	if !current || sess.home != source.name {
		return
	}
	desync := sess.desync
	if !desync {
		if st, err := source.client.ExportSession(ctx, id); err == nil {
			sess.st = st
		}
	}
	if res := rt.migrate(ctx, sess, nil, nil); res.Code != wire.OpOK || sess.home == source.name {
		if ctx.Err() != nil { // abandoned mid-move: the source's copy is untouched
			sess.desync = desync
			return
		}
		tally.Failed++
		rt.failedN.Add(1)
		rt.m.handoffFailed.Inc()
		rt.logf("router: session %s handoff failed: no other replica would take it", id)
		return
	}
	tally.Warm++
	rt.warmN.Add(1)
	rt.m.handoffWarm.Inc()
	// Best effort (a dead source forgets everything anyway): the source's
	// healthz session count drops.
	_ = source.client.ForgetSession(ctx, id)
}

// HandoffOutcomes reports the cumulative drain-handoff tallies — the chaos
// harness asserts planned drains move every session warm.
func (rt *Router) HandoffOutcomes() (warm, failed uint64) {
	return rt.warmN.Load(), rt.failedN.Load()
}
