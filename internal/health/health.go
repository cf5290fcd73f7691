// Package health is the one consecutive-outcome state machine that decides
// whether to call a peer. The router runs one Machine per replica, driven by
// probes and data-path outcomes; the player's circuit breaker runs one for
// the prediction service. They differ only in thresholds and in who may
// admit a call:
//
//	          fail×SuspectAfter            fail×DownAfter
//	Healthy ───────────────────▶ Suspect ───────────────▶ Down
//	   ▲                            │                       │
//	   │ ok                         │ ok                    │ ok, or Admit
//	   └────────────────────────────┘                       ▼  after a cooldown
//	   ▲                                               Recovering
//	   │ ok×RecoverAfter                                    │
//	   └────────────────────────────────────────────────────┘
//	                       (any failure while Recovering → Down)
//
// Recovering exists so one lucky success after an outage does not re-admit
// a flapping peer.
//
// The breaker is this machine with SuspectAfter = DownAfter = its threshold
// and RecoverAfter = 1: closed is Healthy, open is Down, half-open is
// Recovering, and Admit is the cooldown that lets the one trial call out.
//
// Draining sits outside the outcome-driven loop. It is entered by a drain
// order (Drain) or by the peer's own report that it is draining (Report),
// and no success ends it: only withdrawing the order, or the peer no longer
// reporting a drain nobody ordered. Sustained failures still demote it to
// Down, because a drain must not mask a death — and the order stands through
// the death: a peer that comes back while it stands leaves Recovering for
// Draining, not Healthy.
package health

import "time"

// State is a peer's position in the machine.
type State int

// States, in the router's replica-state gauge order.
const (
	Healthy State = iota
	Suspect
	Down
	Recovering
	Draining
)

var names = [...]string{"healthy", "suspect", "down", "recovering", "draining"}

// String names the state for logs, metric labels and the admin listing.
func (s State) String() string {
	if s < 0 || int(s) >= len(names) {
		return "unknown"
	}
	return names[s]
}

// Thresholds tunes the transition counts. All counts are consecutive
// outcomes; any success resets the failure run and vice versa.
type Thresholds struct {
	// SuspectAfter consecutive failures demote Healthy to Suspect.
	SuspectAfter int
	// DownAfter consecutive failures (counted from the first, across the
	// Suspect demotion) mark the peer Down.
	DownAfter int
	// RecoverAfter consecutive successes graduate Recovering.
	RecoverAfter int
}

// DefaultThresholds is the router's: trigger-happy on demotion (one failed
// probe stops new-session placement) and cautious on promotion. Wrongly
// suspecting a replica costs little — existing sessions still drain to it —
// while placing new sessions on a dying one costs a migration each.
func DefaultThresholds() Thresholds {
	return Thresholds{SuspectAfter: 1, DownAfter: 3, RecoverAfter: 2}
}

// WithDefaults fills zero fields from DefaultThresholds.
func (t Thresholds) WithDefaults() Thresholds {
	d := DefaultThresholds()
	if t.SuspectAfter <= 0 {
		t.SuspectAfter = d.SuspectAfter
	}
	if t.DownAfter <= 0 {
		t.DownAfter = d.DownAfter
	}
	if t.RecoverAfter <= 0 {
		t.RecoverAfter = d.RecoverAfter
	}
	return t
}

// Machine is one peer's mutable health record. The zero value is Healthy.
// It reads no clock and holds no lock: callers pass the time and serialize
// access.
type Machine struct {
	state     State
	fails     int
	successes int
	// since is when the current state was entered.
	since time.Time
	// drain is the standing drain order.
	drain bool
}

// State returns the current state.
func (m *Machine) State() State { return m.state }

// Since returns when the current state was entered (zero before the first
// transition).
func (m *Machine) Since() time.Time { return m.since }

// Observe advances the machine on one outcome and returns the transition
// (from == to when nothing changed). It is a pure function of the record,
// the outcome, and the thresholds, which is what makes table-driven tests
// exact.
func (m *Machine) Observe(ok bool, now time.Time, th Thresholds) (from, to State) {
	from = m.state
	if ok {
		m.fails = 0
		switch m.state {
		case Suspect:
			m.state = Healthy
		case Down:
			m.state = Recovering
			m.successes = 1
		case Recovering:
			m.successes++
			if m.successes >= th.RecoverAfter {
				m.state = Healthy
			}
			// Draining: a success does not end a drain.
		}
		if m.state == Healthy && m.drain {
			m.state = Draining
		}
	} else {
		m.successes = 0
		switch m.state {
		case Healthy, Suspect, Draining:
			m.fails++
			if m.fails >= th.DownAfter {
				m.state = Down
			} else if m.fails >= th.SuspectAfter && m.state != Draining {
				m.state = Suspect
			}
		case Recovering:
			// A failure mid-recovery sends the peer straight back: it
			// already proved it can vanish, so it re-earns Healthy from
			// scratch.
			m.state = Down
			m.fails = th.DownAfter
		}
	}
	if m.state != from {
		m.since = now
	}
	return from, m.state
}

// Admit moves Down to Recovering once cooldown has passed since the peer
// went Down — the breaker's half-open entry, letting one trial call out.
func (m *Machine) Admit(now time.Time, cooldown time.Duration) (from, to State) {
	from = m.state
	if from == Down && now.Sub(m.since) >= cooldown {
		m.enter(Recovering, now)
	}
	return from, m.state
}

// Drain sets (on) or withdraws the standing drain order. An order moves
// every state but Down to Draining at once; a Down peer enters Draining when
// it recovers. Withdrawing it returns Draining to Healthy.
func (m *Machine) Drain(on bool, now time.Time) (from, to State) {
	from = m.state
	m.drain = on
	switch {
	case on && from != Down:
		m.enter(Draining, now)
	case !on && from == Draining:
		m.enter(Healthy, now)
	}
	return from, m.state
}

// Report folds in a reachable peer's own word on whether it is draining
// (someone drained it out of band). A peer that says so is Draining unless
// Down; one that stops saying so leaves Draining unless the order stands.
func (m *Machine) Report(draining bool, now time.Time) (from, to State) {
	from = m.state
	switch {
	case draining && from != Draining && from != Down:
		m.enter(Draining, now)
	case !draining && from == Draining && !m.drain:
		m.enter(Healthy, now)
	}
	return from, m.state
}

// enter moves to s with fresh outcome runs, stamping since; already in s,
// it changes nothing.
func (m *Machine) enter(s State, now time.Time) {
	if s != m.state {
		m.state, m.fails, m.successes, m.since = s, 0, 0, now
	}
}
