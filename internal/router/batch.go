package router

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

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
	if httpapi.Refused(err) {
		return callRejected, err
	}
	rt.reportOutcome(rep, err == nil)
	if err != nil {
		return callFailed, err
	}
	return callOK, nil
}

// resultPool recycles upstream result slices, posterior buffers and all: the
// state riding back with every observation decodes without allocating.
var resultPool = sync.Pool{New: func() any { return new([]wire.OpResult) }}

// upstreamOp is op as the router forwards it: an observation asks for the
// state it leaves behind — what the router recreates the session from if need
// be.
func upstreamOp(op wire.Op) wire.Op {
	op.WantState = op.HasObserve
	return op
}

// upstream sends wops to rep as one /v2/batch frame, decoding into *buf. The
// router→replica hop is always binary v2, whatever mode Config.NewClient
// built the client in, and this is its only call site.
func (rt *Router) upstream(rep *replica, wops []wire.Op, buf *[]wire.OpResult) (rres []wire.OpResult, gen uint64, oc outcome) {
	oc, _ = rt.call(rep, func(c *httpapi.Client) (err error) {
		if rres, gen, err = c.BatchInto(wops, *buf); err == nil && len(rres) != len(wops) {
			err = fmt.Errorf("router: %s answered %d results for %d ops", rep.name, len(rres), len(wops))
		}
		return err
	})
	if oc == callOK {
		*buf = rres
	}
	return rres, gen, oc
}

// ServeBatch implements httpapi.BatchService and is the router's one
// per-chunk data path — JSON v1, binary single ops and /v2/batch frames all
// arrive here from the embedded httpapi server, and ObserveAndPredict and
// Predict are one-op wrappers over it. Per batch:
//
//  1. look up every op's session and lock the distinct sessions in id order
//     (lockSessions); the locks are held until the last op is answered, so a
//     drain handoff — which holds the same lock across its whole move — can
//     never interleave with an op for the session it is moving;
//  2. group the ops by home replica and forward each group as one upstream
//     batch;
//  3. recover per op: an op whose session's home is untrusted, gone, failed
//     the group call, or answered OpUnknownSession (the replica restarted
//     without it) is answered by migrate; later ops of that session in the
//     same batch then go round again to the new home, so a batch spanning a
//     dying replica degrades per op instead of failing whole.
//
// The session record advances only when an observation is answered OK, to
// the state that came back with it: whatever a failed attempt did to some
// replica's copy, the record is the session as of its last answered op. An
// op answered OpUnavailable was not applied. The returned generation is
// the one every group agreed on, or 0 when they diverged or any op was
// recovered (a mixed batch is not one snapshot).
func (rt *Router) ServeBatch(ops []wire.Op, res []wire.OpResult) uint64 {
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
	buf := resultPool.Get().(*[]wire.OpResult)
	defer resultPool.Put(buf)
	for len(pending) > 0 {
		groups = groups[:0]
	next:
		for _, i := range pending {
			s := sess[i]
			if !s.desync {
				for g := range groups {
					if groups[g].rep.name == s.home {
						groups[g].idx = append(groups[g].idx, i)
						groups[g].wops = append(groups[g].wops, upstreamOp(ops[i]))
						continue next
					}
				}
				if rep := rt.usable(s.home); rep != nil {
					groups = append(groups, group{rep: rep, idx: []int{i}, wops: []wire.Op{upstreamOp(ops[i])}})
					continue
				}
			}
			if res[i] = rt.migrate(context.TODO(), s, &ops[i], buf); res[i].Code == wire.OpOK {
				rt.m.failovers.Inc()
			}
			mixed = true
		}
		pending = pending[:0]
		for _, g := range groups {
			rres, ggen, oc := rt.upstream(g.rep, g.wops, buf)
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
					res[i] = wire.OpResult{Code: wire.OpInvalid}
				case oc == callFailed || s.desync || rres[k].Code == wire.OpUnknownSession:
					// The home's filter state can no longer be trusted to
					// match the observation stream (and once one op of a
					// session is in doubt, so is every later one): recover
					// in the next round.
					s.desync = true
					pending = append(pending, i)
				default:
					if rres[k].Code == wire.OpOK && ops[i].HasObserve {
						s.ack(&rres[k].State)
					}
					res[i] = wire.OpResult{PredictionMbps: rres[k].PredictionMbps, Code: rres[k].Code}
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
// answered here — OpInvalid for an observation no filter may absorb,
// OpUnknownSession for an unregistered id — and get a nil entry in the
// index-aligned sess; live lists the indices of the rest, in op order. The
// caller unlocks locked.
func (rt *Router) lockSessions(ops []wire.Op, res []wire.OpResult) (sess []*routedSession, live []int, locked []*routedSession) {
	sess = make([]*routedSession, len(ops))
	live = make([]int, 0, len(ops))
	rt.mu.Lock()
	for i := range ops {
		op := &ops[i]
		switch s := rt.sessions[string(op.SessionID)]; {
		case op.Malformed():
			res[i] = wire.OpResult{Code: wire.OpInvalid}
		case s == nil:
			res[i] = wire.OpResult{Code: wire.OpUnknownSession}
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
func (rt *Router) serveOne(op wire.Op) (float64, error) {
	var res [1]wire.OpResult
	rt.ServeBatch([]wire.Op{op}, res[:])
	switch res[0].Code {
	case wire.OpOK:
		return res[0].PredictionMbps, nil
	case wire.OpUnknownSession:
		return 0, fmt.Errorf("%w: %s", engine.ErrUnknownSession, op.SessionID)
	case wire.OpUnavailable:
		return 0, fmt.Errorf("router: session %s: failover failed: %w", op.SessionID, ErrNoReplica)
	default:
		return 0, fmt.Errorf("router: session %s: op rejected (result code %d)", op.SessionID, res[0].Code)
	}
}

// ObserveAndPredict implements httpapi.SessionService.
func (rt *Router) ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error) {
	return rt.serveOne(wire.Op{SessionID: []byte(id), ObservedMbps: observedMbps, Horizon: horizon, HasObserve: true})
}

// Predict implements httpapi.SessionService (stateless horizon query).
func (rt *Router) Predict(id string, horizon int) (float64, error) {
	return rt.serveOne(wire.Op{SessionID: []byte(id), Horizon: horizon})
}

// migrate (sess.mu held) recreates the session on the first candidate that
// will have it and, when op is non-nil, answers op there. It is the one way
// a session moves — failover and drain both call it — and it is exact,
// however long the session and whether or not its old home lives: the
// candidate imports the last acknowledged state (replacing any copy it
// held, so a half-failed attempt cannot count twice) and op is applied on
// top, once. With nothing acknowledged yet the session stands at the
// cluster prior, and a fresh StartSession is that import.
//
// The one cold path: when model guards refuse the state and an op must be
// answered, the session restarts from Algorithm 1's prior under the new
// model. A drain (op == nil) never goes cold; the session stays exact on its
// draining home. With no candidate left the op is answered OpUnavailable,
// unapplied, and the session stays desynced.
func (rt *Router) migrate(ctx context.Context, sess *routedSession, op *wire.Op, buf *[]wire.OpResult) wire.OpResult {
	sess.desync = true
	id := sess.st.SessionID
	cands := rt.candidates(id, false)
	cold := len(sess.st.Posterior) == 0
	for {
		refused := false
		for _, rep := range cands {
			oc, _ := rt.call(rep, func(c *httpapi.Client) error {
				if cold {
					_, err := c.StartSession(id, sess.st.Features, sess.st.StartUnix)
					return err
				}
				return c.ImportSession(ctx, sess.st)
			})
			if oc == callRejected && !cold {
				refused = true
				rt.m.skewRefusals.Inc()
				rt.logf("router: %s refused session %s's state", rep.name, id)
			}
			if oc != callOK {
				continue
			}
			if cold {
				sess.st.Posterior = sess.st.Posterior[:0] // rep's copy started from the prior
			}
			res := wire.OpResult{Code: wire.OpOK}
			if op != nil {
				rres, _, oc := rt.upstream(rep, []wire.Op{upstreamOp(*op)}, buf)
				if oc != callOK || rres[0].Code != wire.OpOK {
					continue
				}
				res.PredictionMbps = rres[0].PredictionMbps
				if op.HasObserve {
					sess.ack(&rres[0].State)
				}
			}
			if sess.home != rep.name {
				rt.logf("router: session %s migrated %s -> %s", id, sess.home, rep.name)
			}
			sess.home, sess.desync = rep.name, false
			return res
		}
		if cold || !refused || op == nil {
			return wire.OpResult{Code: wire.OpUnavailable}
		}
		cold = true
	}
}
