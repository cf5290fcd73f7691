package health

import (
	"testing"
	"time"
)

// TestAdmit: Admit moves only Down, and only once the cooldown has passed
// since the peer went Down; the admitted trial's success closes the loop at
// RecoverAfter = 1, its failure restarts the cooldown.
func TestAdmit(t *testing.T) {
	th := Thresholds{SuspectAfter: 2, DownAfter: 2, RecoverAfter: 1}
	t0 := time.Unix(1_700_000_000, 0)
	var m Machine
	m.Observe(false, t0, th)
	if _, to := m.Admit(t0.Add(time.Hour), time.Second); to != Healthy {
		t.Fatalf("Admit moved a Healthy peer to %s", to)
	}
	m.Observe(false, t0, th)
	if _, to := m.Admit(t0.Add(time.Second-1), time.Second); to != Down {
		t.Fatalf("Admit before the cooldown: %s, want down", to)
	}
	if from, to := m.Admit(t0.Add(time.Second), time.Second); from != Down || to != Recovering {
		t.Fatalf("Admit at the cooldown: %s -> %s, want down -> recovering", from, to)
	}
	if !m.Since().Equal(t0.Add(time.Second)) {
		t.Fatalf("since = %v, want the admission time", m.Since())
	}
	t1 := t0.Add(2 * time.Second)
	if _, to := m.Observe(false, t1, th); to != Down || !m.Since().Equal(t1) {
		t.Fatalf("failed trial: %s since %v, want down since %v", to, m.Since(), t1)
	}
	m.Admit(t1.Add(time.Second), time.Second)
	if _, to := m.Observe(true, t1.Add(time.Second), th); to != Healthy {
		t.Fatalf("successful trial: %s, want healthy", to)
	}
}

// TestDrainOrder drives the drain order, the peer's own drain report and
// outcomes through the router's thresholds. 'd'/'u' order and withdraw a
// drain, 'R'/'r' are reports of draining / not draining, '+'/'-' outcomes.
func TestDrainOrder(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name  string
		steps string
		want  []State
	}{
		{"order drains", "d", []State{Draining}},
		{"withdrawal undrains", "du", []State{Draining, Healthy}},
		{"a success does not end it", "d+", []State{Draining, Draining}},
		{"failures never suspect a drain", "d-+", []State{Draining, Draining, Draining}},
		{"a drain does not mask a death", "d---", []State{Draining, Draining, Draining, Down}},
		{"the order survives the death", "d---++",
			[]State{Draining, Draining, Draining, Down, Recovering, Draining}},
		{"an order given while down stands", "---d++",
			[]State{Suspect, Suspect, Down, Down, Recovering, Draining}},
		{"withdrawn while down", "---du++",
			[]State{Suspect, Suspect, Down, Down, Down, Recovering, Healthy}},
		{"a report adopts a drain", "Rr", []State{Draining, Healthy}},
		{"the order outranks the report", "dr", []State{Draining, Draining}},
		{"a down peer's report waits", "---R", []State{Suspect, Suspect, Down, Down}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			var m Machine
			for i, c := range tc.steps {
				now = now.Add(time.Second)
				switch c {
				case 'd', 'u':
					m.Drain(c == 'd', now)
				case 'R', 'r':
					m.Report(c == 'R', now)
				default:
					m.Observe(c == '+', now, th)
				}
				if m.State() != tc.want[i] {
					t.Fatalf("after %q: state %s, want %s", tc.steps[:i+1], m.State(), tc.want[i])
				}
			}
		})
	}
}
