package router

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"

	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/wire"
)

// outcome classifies one upstream call for the health state machine.
type outcome int

const (
	// callOK: the replica answered.
	callOK outcome = iota
	// callRejected: the replica understood the request and refused it (4xx,
	// or 501 for a surface it does not have). It is alive — every replica
	// would say the same — so this is no evidence against its health.
	callRejected
	// callFailed: transport error or 5xx — evidence of trouble exactly like
	// a failed probe.
	callFailed
)

// call runs one upstream request against rep and owns what its result means:
// the per-replica request counter, and the health evidence fed back through
// reportOutcome. Every data-path forward goes through here, so the
// "answered / refused / failed" ladder exists once.
func (rt *Router) call(rep *replica, fn func(c *httpapi.Client) error) (outcome, error) {
	err := fn(rep.client)
	rt.m.request(rep.name, err == nil)
	if st := httpapi.HTTPStatus(err); st/100 == 4 || st == http.StatusNotImplemented {
		return callRejected, err
	}
	rt.reportOutcome(rep, err == nil)
	if err != nil {
		return callFailed, err
	}
	return callOK, nil
}

// upstream sends wops to rep as one /v2/batch frame. The router→replica hop
// is always binary v2, whatever mode Config.NewClient built the client in,
// and this is its only call site.
func (rt *Router) upstream(rep *replica, wops []wire.Op) (rres []wire.OpResult, gen uint64, oc outcome) {
	oc, _ = rt.call(rep, func(c *httpapi.Client) error {
		var err error
		rres, gen, err = c.Batch(wops)
		if err == nil && len(rres) != len(wops) {
			err = fmt.Errorf("router: %s answered %d results for %d ops", rep.name, len(rres), len(wops))
		}
		return err
	})
	return rres, gen, oc
}

// ServeBatch implements httpapi.BatchService and is the router's one
// per-chunk data path — JSON v1, binary single ops and /v2/batch frames all
// arrive here from the embedded httpapi server, and ObserveAndPredict and
// Predict are one-op wrappers over it. Per batch:
//
//  1. look up every op's session and lock the distinct sessions in id order
//     (lockSessions); the locks are held until the last op is answered, so a
//     drain handoff — which holds the same lock across export→import→forget
//     — can never interleave with an op for the session it is moving;
//  2. group the ops by home replica and forward each group as one upstream
//     batch;
//  3. recover per op: an op whose session's home is untrusted, gone, failed
//     the group call, or answered OpUnknownSession (the replica restarted
//     without it) is answered by migrate, which re-registers the session and
//     replays its window; later ops of that session in the same batch then
//     go round again to the new home, so a batch spanning a dying replica
//     degrades per op instead of failing whole.
//
// An observation enters the replay window when the op carrying it is
// answered OK or handed to migrate — exactly once, and before any replay
// that must include it. The returned generation is the one value every
// group agreed on, or 0 when they diverged or any op was recovered (a
// frontend caching on generation must not treat a mixed batch as one
// snapshot).
func (rt *Router) ServeBatch(ops []engine.BatchOp, res []engine.BatchResult) uint64 {
	sess, pending, locked := rt.lockSessions(ops, res)
	defer func() {
		for _, s := range locked {
			s.mu.Unlock()
		}
	}()
	type group struct {
		rep  *replica
		idx  []int
		wops []wire.Op
	}
	var (
		groups []group
		gen    uint64
		mixed  bool
	)
	for len(pending) > 0 {
		groups = groups[:0]
	next:
		for _, i := range pending {
			s := sess[i]
			if !s.desync {
				for g := range groups {
					if groups[g].rep.name == s.home {
						groups[g].idx = append(groups[g].idx, i)
						groups[g].wops = append(groups[g].wops, httpapi.WireOp(ops[i]))
						continue next
					}
				}
				if rep := rt.usable(s.home); rep != nil {
					groups = append(groups, group{rep: rep, idx: []int{i}, wops: []wire.Op{httpapi.WireOp(ops[i])}})
					continue
				}
			}
			res[i] = rt.migrate(s, &ops[i])
			mixed = true
		}
		pending = pending[:0]
		for _, g := range groups {
			rres, ggen, oc := rt.upstream(g.rep, g.wops)
			if oc == callOK {
				if gen == 0 {
					gen = ggen
				}
				mixed = mixed || gen != ggen
			}
			for k, i := range g.idx {
				s := sess[i]
				switch {
				case oc == callRejected:
					res[i] = engine.BatchResult{Code: engine.BatchInvalid}
				case oc == callFailed || s.desync || rres[k].Code == wire.OpUnknownSession:
					// The home's filter state can no longer be trusted to
					// match the observation stream (and once one op of a
					// session is in doubt, so is every later one): recover
					// in the next round.
					s.desync = true
					pending = append(pending, i)
				default:
					if rres[k].Code == wire.OpOK && ops[i].HasObserve {
						s.push(ops[i].ObservedMbps, rt.window)
					}
					res[i] = engine.BatchResult{PredictionMbps: rres[k].PredictionMbps, Code: rres[k].Code}
				}
			}
		}
	}
	if mixed {
		return 0
	}
	return gen
}

// lockSessions resolves each op's session and locks the distinct ones in
// session-id order, so two concurrent batches can never deadlock (lock order
// stays sess.mu → rt.mu). Ops that have no session to serve them are
// answered here — BatchInvalid for an observation no filter may absorb,
// BatchUnknownSession for an unregistered id — and get a nil entry in the
// index-aligned sess; live lists the indices of the rest, in op order. The
// caller unlocks locked.
func (rt *Router) lockSessions(ops []engine.BatchOp, res []engine.BatchResult) (sess []*routedSession, live []int, locked []*routedSession) {
	sess = make([]*routedSession, len(ops))
	live = make([]int, 0, len(ops))
	rt.mu.Lock()
	for i := range ops {
		op := &ops[i]
		switch s := rt.sessions[string(op.SessionID)]; {
		case op.Malformed():
			res[i] = engine.BatchResult{Code: engine.BatchInvalid}
		case s == nil:
			res[i] = engine.BatchResult{Code: engine.BatchUnknownSession}
		default:
			sess[i] = s
			live = append(live, i)
		}
	}
	rt.mu.Unlock()
	order := live
	if len(live) > 1 {
		order = append([]int(nil), live...)
		sort.Slice(order, func(a, b int) bool { return bytes.Compare(ops[order[a]].SessionID, ops[order[b]].SessionID) < 0 })
	}
	for _, i := range order {
		// Equal ids resolved to one record under one rt.mu hold, so
		// duplicates are adjacent.
		if n := len(locked); n == 0 || locked[n-1] != sess[i] {
			sess[i].mu.Lock()
			locked = append(locked, sess[i])
		}
	}
	return sess, live, locked
}

// serveOne is the one-op form of ServeBatch with the result code turned
// back into an error.
func (rt *Router) serveOne(op engine.BatchOp) (float64, error) {
	var res [1]engine.BatchResult
	rt.ServeBatch([]engine.BatchOp{op}, res[:])
	switch res[0].Code {
	case engine.BatchOK:
		return res[0].PredictionMbps, nil
	case engine.BatchUnknownSession:
		return 0, fmt.Errorf("%w: %s", engine.ErrUnknownSession, op.SessionID)
	case engine.BatchUnavailable:
		return 0, fmt.Errorf("router: session %s: failover failed: %w", op.SessionID, ErrNoReplica)
	default:
		return 0, fmt.Errorf("router: session %s: op rejected (result code %d)", op.SessionID, res[0].Code)
	}
}

// ObserveAndPredict implements httpapi.SessionService.
func (rt *Router) ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error) {
	return rt.serveOne(engine.BatchOp{SessionID: []byte(id), ObservedMbps: observedMbps, Horizon: horizon, HasObserve: true})
}

// Predict implements httpapi.SessionService (stateless horizon query).
func (rt *Router) Predict(id string, horizon int) (float64, error) {
	return rt.serveOne(engine.BatchOp{SessionID: []byte(id), Horizon: horizon})
}

// migrate (sess.mu held) re-homes the session and answers op from the
// replayed stream. op's observation goes into the replay window FIRST: if
// every candidate then fails, the window already holds everything needed to
// rebuild the session later, including this sample. Because the HMM
// posterior is a function of the cluster prior and the observation
// sequence, a full-window replay reproduces the fault-free filter state
// exactly for young sessions and to within posterior-mixing noise for long
// ones — which is why failover barely moves predictions. With no candidate
// left the op is answered BatchUnavailable and the session stays desynced.
func (rt *Router) migrate(sess *routedSession, op *engine.BatchOp) engine.BatchResult {
	id := string(op.SessionID)
	if op.HasObserve {
		sess.push(op.ObservedMbps, rt.window)
	}
	sess.desync = true
	for _, rep := range rt.failoverCandidates(id, sess.version) {
		pred, ok := rt.adopt(rep, sess, op)
		if !ok {
			continue
		}
		from := sess.home
		sess.home = rep.name
		sess.version = rt.versionOf(rep)
		sess.desync = false
		rt.m.failovers.Inc()
		if from != rep.name {
			rt.logf("router: session %s migrated %s -> %s (replayed %d observations)", id, from, rep.name, len(sess.recent))
		}
		return engine.BatchResult{PredictionMbps: pred, Code: engine.BatchOK}
	}
	return engine.BatchResult{Code: engine.BatchUnavailable}
}

// adopt registers sess on rep and replays its window as ONE upstream batch.
// Intermediate replays use horizon 1 (the values are discarded); the last
// observation carries the pending op's horizon so its prediction answers
// it. An empty window (failover on a pure predict before any observation)
// sends the query alone against the fresh session.
func (rt *Router) adopt(rep *replica, sess *routedSession, op *engine.BatchOp) (float64, bool) {
	oc, _ := rt.call(rep, func(c *httpapi.Client) error {
		_, err := c.StartSession(string(op.SessionID), sess.features, sess.startUnix)
		return err
	})
	if oc != callOK {
		return 0, false
	}
	query := httpapi.WireOp(engine.BatchOp{SessionID: op.SessionID, Horizon: op.Horizon})
	wops := make([]wire.Op, 0, len(sess.recent)+1)
	for _, o := range sess.recent {
		wops = append(wops, wire.Op{SessionID: op.SessionID, ObservedMbps: o, Horizon: 1, HasObserve: true})
	}
	if n := len(wops); n > 0 {
		wops[n-1].Horizon = query.Horizon
	} else {
		wops = append(wops, query)
	}
	rres, _, oc := rt.upstream(rep, wops)
	if oc != callOK {
		return 0, false
	}
	for _, r := range rres {
		if r.Code != wire.OpOK {
			return 0, false
		}
	}
	rt.m.replayed.Add(len(sess.recent))
	return rres[len(rres)-1].PredictionMbps, true
}
