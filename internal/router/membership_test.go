package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/wire"
)

// addStub boots one more stub replica server (NOT yet a member) and returns
// its base URL, for join tests.
func (c *stubCluster) addStub(version uint64) string {
	c.t.Helper()
	sb := newStubBackend(version)
	srv := httpapi.NewServer(sb, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	c.t.Cleanup(ts.Close)
	c.stubs[ts.URL] = sb
	return ts.URL
}

// observeN feeds observations 1..n into a session through the router.
func (c *stubCluster) observeN(id string, n int) {
	c.t.Helper()
	for j := 1; j <= n; j++ {
		if _, err := c.rt.ObserveAndPredict(id, float64(j), 1); err != nil {
			c.t.Fatalf("observe %s #%d: %v", id, j, err)
		}
	}
}

func TestValidateReplicaURL(t *testing.T) {
	good := map[string]string{
		"http://10.0.0.1:8642":  "http://10.0.0.1:8642",
		" http://h:1 ":          "http://h:1",
		"https://replica.local": "https://replica.local",
		"http://10.0.0.1:8642/": "http://10.0.0.1:8642",
	}
	for in, want := range good {
		got, err := ValidateReplicaURL(in)
		if err != nil || got != want {
			t.Errorf("ValidateReplicaURL(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	bad := []string{
		"",
		"   ",
		"10.0.0.1:8642",            // no scheme
		"ftp://h:1",                // wrong scheme
		"http://",                  // no host
		"http://user:pw@h:1",       // credentials
		"http://h:1/path",          // path
		"http://h:1?x=1",           // query
		"http://h:1#frag",          // fragment
		"http://h:1,http://h2:1/x", // not split here: comma is part of host -> invalid
	}
	for _, in := range bad {
		if got, err := ValidateReplicaURL(in); err == nil {
			t.Errorf("ValidateReplicaURL(%q) = %q; want error", in, got)
		}
	}
}

func TestParseReplicaList(t *testing.T) {
	got, err := ParseReplicaList(" http://a:1, http://b:2 ,,http://c:3/")
	if err != nil {
		t.Fatalf("ParseReplicaList: %v", err)
	}
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	for _, bad := range []string{
		"",
		" , ,",
		"http://a:1,http://a:1",  // duplicate
		"http://a:1,http://a:1/", // duplicate after canonicalization
		"http://a:1,nonsense",
	} {
		if out, err := ParseReplicaList(bad); err == nil {
			t.Errorf("ParseReplicaList(%q) = %v; want error", bad, out)
		}
	}
}

// TestMembershipRingStabilityProperty pins the blast-radius contract of a
// membership change across member-set sizes: adding one member moves only
// keys that land on the newcomer and no more than ~2·K/N of them; removing
// one member moves only the keys it owned; and the rebuilt ring is a pure
// function of the member SET — insertion order must not matter, or two
// routers would route the same cluster differently.
func TestMembershipRingStabilityProperty(t *testing.T) {
	const K = 4000
	ks := keys(K)
	owners := func(names []string) map[string]string {
		m := newMembership(64)
		for _, n := range names {
			if err := m.addLocked(&replica{name: n}); err != nil {
				t.Fatalf("add %s: %v", n, err)
			}
		}
		out := make(map[string]string, len(ks))
		for _, k := range ks {
			out[k], _ = m.Ring().Owner(k)
		}
		return out
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 3, 4, 6, 8} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("http://replica-%02d", i)
		}
		before := owners(names)

		// Determinism: shuffled insertion order yields the identical ring.
		shuffled := append([]string(nil), names...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for k, o := range owners(shuffled) {
			if before[k] != o {
				t.Fatalf("n=%d: key %s owned by %s vs %s across insertion orders", n, k, before[k], o)
			}
		}

		// Join: moved keys all land on the newcomer, and stay under ~2·K/N.
		added := "http://replica-new"
		moved := 0
		for k, o := range owners(append(append([]string(nil), names...), added)) {
			if o == before[k] {
				continue
			}
			if o != added {
				t.Fatalf("n=%d: key %s moved %s -> %s on join, not to the joiner", n, k, before[k], o)
			}
			moved++
		}
		if bound := 2 * K / n; moved == 0 || moved > bound {
			t.Errorf("n=%d: join moved %d/%d keys; want (0, %d]", n, moved, K, bound)
		}

		// Drain+remove: only the removed member's keys move.
		removed := names[rng.Intn(n)]
		kept := make([]string, 0, n-1)
		for _, m := range names {
			if m != removed {
				kept = append(kept, m)
			}
		}
		moved = 0
		for k, o := range owners(kept) {
			if before[k] == removed {
				moved++
				if o == removed {
					t.Fatalf("n=%d: key %s still owned by removed member", n, k)
				}
				continue
			}
			if o != before[k] {
				t.Fatalf("n=%d: key %s moved %s -> %s though its owner stayed", n, k, before[k], o)
			}
		}
		if bound := 2 * K / n; moved == 0 || moved > bound {
			t.Errorf("n=%d: removal moved %d/%d keys; want (0, %d]", n, moved, K, bound)
		}
	}
}

// homesByReplica groups started sessions by their current home.
func homesByReplica(t *testing.T, c *stubCluster, ids []string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, id := range ids {
		out[c.home(id)] = append(out[c.home(id)], id)
	}
	return out
}

// TestRouterDrainWarmHandoff: draining a live replica moves every resident
// session warm — exact state — onto other members. The stub's prediction is
// sum(history)+horizon, so the post-drain prediction equals the fault-free
// value only if the whole history arrived.
func TestRouterDrainWarmHandoff(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	var ids []string
	for i := 0; i < 9; i++ {
		id := fmt.Sprintf("warm-%d", i)
		c.mustStart(id)
		c.observeN(id, 6)
		ids = append(ids, id)
	}
	byHome := homesByReplica(t, c, ids)
	var victim string
	for name, group := range byHome {
		if len(group) > 0 {
			victim = name
			break
		}
	}
	resident := byHome[victim]

	res, err := c.rt.DrainReplica(ctx, victim)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Warm != len(resident) || res.Failed != 0 {
		t.Fatalf("drain tally %+v; want %d warm, 0 failed", res, len(resident))
	}
	if warm, failed := c.rt.HandoffOutcomes(); warm != uint64(len(resident)) || failed != 0 {
		t.Fatalf("handoff outcomes warm=%d failed=%d; want %d/0", warm, failed, len(resident))
	}
	if st := c.rt.ReplicaStates()[victim]; st != StateDraining {
		t.Fatalf("drained replica state %s, want draining", st)
	}
	if !c.stubs[victim].Draining() {
		t.Error("drain was not mirrored onto the replica's own draining flag")
	}
	// 1+2+...+6 = 21.
	for _, id := range resident {
		newHome := c.home(id)
		if newHome == victim {
			t.Fatalf("session %s still homed on drained replica", id)
		}
		pred, err := c.rt.Predict(id, 2)
		if err != nil {
			t.Fatalf("predict %s after handoff: %v", id, err)
		}
		if pred != 21+2 {
			t.Errorf("session %s predicts %g after drain; want exact full-history 23", id, pred)
		}
		if _, ok := c.stubs[victim].observations(id); ok {
			t.Errorf("session %s still resident on the source after warm handoff", id)
		}
	}
	// Sessions homed elsewhere must not have moved.
	for name, group := range byHome {
		if name == victim {
			continue
		}
		for _, id := range group {
			if h := c.home(id); h != name {
				t.Errorf("bystander session %s moved %s -> %s during drain", id, name, h)
			}
		}
	}
	// A draining member takes no new sessions while others are up.
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("fresh-%d", i)
		c.mustStart(id)
		if h := c.home(id); h == victim {
			t.Fatalf("new session %s placed on draining replica", id)
		}
	}
	// Undrain restores the member to rotation and clears the mirrored flag.
	if err := c.rt.UndrainReplica(ctx, victim); err != nil {
		t.Fatalf("undrain: %v", err)
	}
	if st := c.rt.ReplicaStates()[victim]; st != StateHealthy {
		t.Fatalf("undrained replica state %s, want healthy", st)
	}
	if c.stubs[victim].Draining() {
		t.Error("undrain did not clear the replica's draining flag")
	}
}

// TestRouterDrainWaitsForInFlightBatchOp pins the lock the handoff relies
// on: export→import→forget is atomic against the session's op stream only
// if every op holds the session lock from home lookup through the upstream
// answer. A /v2/batch op is held in flight at the old home (forwarded, not
// yet applied) while the session's replica is drained. The handoff must not
// export until the op is answered — an export taken before the op is applied
// carries state that lacks it, and the import + forget that follow lose the
// observation on the new home for good.
func TestRouterDrainWaitsForInFlightBatchOp(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()
	const id = "inflight-0"
	c.mustStart(id)
	c.observeN(id, 3)
	source := c.home(id)

	batchArrived, batchRelease := make(chan struct{}), make(chan struct{})
	exported, exportRelease := make(chan struct{}), make(chan struct{})
	var batchOnce, exportOnce sync.Once
	c.stubs[source].setHooks(
		func() { batchOnce.Do(func() { close(batchArrived); <-batchRelease }) },
		func() { exportOnce.Do(func() { close(exported); <-exportRelease }) },
	)

	opDone := make(chan error, 1)
	go func() {
		res, _, err := httpapi.NewClient(front.URL).Batch([]wire.Op{{SessionID: []byte(id), ObservedMbps: 10, Horizon: 1, HasObserve: true}})
		if err == nil && res[0].Code != wire.OpOK {
			err = fmt.Errorf("batch op answered code %d", res[0].Code)
		}
		opDone <- err
	}()
	<-batchArrived
	drainDone := make(chan error, 1)
	go func() {
		_, err := c.rt.DrainReplica(ctx, source)
		drainDone <- err
	}()
	// Proving the handoff is NOT running needs a time bound; every other
	// step below waits on its event.
	select {
	case <-exported:
		t.Error("drain exported the session while an op for it was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(batchRelease)
	if err := <-opDone; err != nil {
		t.Fatalf("in-flight batch op: %v", err)
	}
	<-exported
	close(exportRelease)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	target := c.home(id)
	if target == source {
		t.Fatalf("session still homed on drained replica %s", source)
	}
	got, _ := c.stubs[target].observations(id)
	if want := []float64{1, 2, 3, 10}; !floatsEqual(got, want) {
		t.Fatalf("new home's history %v, want %v: the op served mid-drain was lost in the handoff", got, want)
	}
}

// TestRouterDrainDeadSourceUsesHeldState: when the source cannot answer the
// export, the drain still empties it — from the state the router already
// holds, which is the same state: the handoff is as warm, and as exact, as
// with a live source.
func TestRouterDrainDeadSourceUsesHeldState(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	const id = "dead-0"
	c.mustStart(id)
	c.observeN(id, 6)
	victim := c.home(id)

	c.gate.SetHostDown(hostOf(victim), true)
	res, err := c.rt.DrainReplica(ctx, victim)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Warm != 1 || res.Failed != 0 {
		t.Fatalf("drain tally %+v; want 1 warm (held state needs no live source)", res)
	}
	if warm, failed := c.rt.HandoffOutcomes(); warm != 1 || failed != 0 {
		t.Fatalf("handoff outcomes warm=%d failed=%d; want 1/0", warm, failed)
	}
	if h := c.home(id); h == victim {
		t.Fatalf("session still homed on dead drained replica")
	}
	pred, err := c.rt.Predict(id, 2)
	if err != nil {
		t.Fatalf("predict after handoff: %v", err)
	}
	if pred != 21+2 {
		t.Errorf("session predicts %g after a dead-source drain; want the full-history 23", pred)
	}
}

// TestRouterDrainGuardRefusalLeavesSessionHome: when every other member's
// model guard refuses the state (409) — the mid-rollout story: draining an
// old-generation replica while the new-generation ones refuse old state —
// the drain does not trade the session's exact filter for a cold restart.
// The session is tallied failed and stays, still exact, on its draining
// home; it goes cold only if that home is later lost with an op to answer.
func TestRouterDrainGuardRefusalLeavesSessionHome(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	const id = "guard-0"
	c.mustStart(id)
	c.observeN(id, 6)
	victim := c.home(id)
	for name, sb := range c.stubs {
		if name != victim {
			sb.setRefuseImport(true)
		}
	}
	res, err := c.rt.DrainReplica(ctx, victim)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Warm != 0 || res.Failed != 1 {
		t.Fatalf("drain tally %+v; want 0 warm, 1 failed (every guard refused)", res)
	}
	if h := c.home(id); h != victim {
		t.Fatalf("session moved to %s although no member accepted its state", h)
	}
	pred, err := c.rt.Predict(id, 2)
	if err != nil {
		t.Fatalf("predict after refused handoff: %v", err)
	}
	if pred != 21+2 {
		t.Errorf("session predicts %g; want the full-history 23 from its draining home", pred)
	}
	// The home dies: now an op must be answered, and the cold path is all
	// that is left — a fresh session plus the pending observation.
	c.kill(victim)
	if pred, err = c.rt.ObserveAndPredict(id, 7, 1); err != nil || pred != 7+1 {
		t.Fatalf("after the draining home died: prediction %g err %v, want the cold-restart 8", pred, err)
	}
}

// TestRouterDrainSurvivesReplicaDeath: an admin drain is a standing order.
// The drained replica dies, comes back without its own draining flag (a
// restarted process forgets it) and passes its probes again: it is Draining,
// not Healthy, and takes no new session until the order is withdrawn. The
// same holds for a drain ordered while the replica is already Down.
func TestRouterDrainSurvivesReplicaDeath(t *testing.T) {
	for _, tc := range []struct {
		name       string
		drainFirst bool
	}{
		{"drained then killed", true},
		{"drained while down", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newStubCluster(t, Config{}, 1, 1, 1)
			ctx := context.Background()
			c.rt.ProbeAll(ctx)
			victim := c.names[0]
			drain := func() {
				if _, err := c.rt.DrainReplica(ctx, victim); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
			if tc.drainFirst {
				drain()
			}
			c.kill(victim)
			for i := 0; i < 3; i++ {
				c.rt.ProbeAll(ctx)
			}
			if st := c.rt.ReplicaStates()[victim]; st != StateDown {
				t.Fatalf("killed replica state %s, want down", st)
			}
			if !tc.drainFirst {
				drain()
			}
			c.stubs[victim].SetDraining(false)
			c.revive(victim)
			for i := 0; i < 3; i++ {
				c.rt.ProbeAll(ctx)
			}
			if st := c.rt.ReplicaStates()[victim]; st != StateDraining {
				t.Fatalf("revived drained replica state %s, want draining", st)
			}
			for i := 0; i < 24; i++ {
				id := fmt.Sprintf("after-%d", i)
				c.mustStart(id)
				if c.home(id) == victim {
					t.Fatalf("new session %s placed on the drained replica", id)
				}
			}
			if err := c.rt.UndrainReplica(ctx, victim); err != nil {
				t.Fatalf("undrain: %v", err)
			}
			if st := c.rt.ReplicaStates()[victim]; st != StateHealthy {
				t.Fatalf("undrained replica state %s, want healthy", st)
			}
		})
	}
}

// TestRouterAdoptsReplicaOwnDrain: a replica drained out of band — its own
// healthz says "draining" — is Draining at the next probe, and Healthy again
// once its healthz stops saying so, since no order of this router stands.
func TestRouterAdoptsReplicaOwnDrain(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	ctx := context.Background()
	victim := c.names[0]
	c.stubs[victim].SetDraining(true)
	c.rt.ProbeAll(ctx)
	if st := c.rt.ReplicaStates()[victim]; st != StateDraining {
		t.Fatalf("self-draining replica state %s, want draining", st)
	}
	c.stubs[victim].SetDraining(false)
	c.rt.ProbeAll(ctx)
	if st := c.rt.ReplicaStates()[victim]; st != StateHealthy {
		t.Fatalf("replica state %s after its own drain ended, want healthy", st)
	}
}

// TestRouterAddRemoveReplica drives the programmatic membership surface:
// joins take traffic, duplicate joins and unknown removals are refused, and
// the last member cannot be removed.
func TestRouterAddRemoveReplica(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	extra := c.addStub(1)
	if err := c.rt.AddReplica(ctx, extra); err != nil {
		t.Fatalf("add: %v", err)
	}
	if got := c.rt.Replicas(); len(got) != 3 {
		t.Fatalf("after join Replicas() = %v, want 3 members", got)
	}
	if st := c.rt.ReplicaStates()[extra]; st != StateHealthy {
		t.Fatalf("joined replica state %s, want healthy", st)
	}
	// The joiner owns ring arcs, so a spread of new sessions reaches it.
	landed := 0
	for i := 0; i < 48; i++ {
		id := fmt.Sprintf("join-%d", i)
		c.mustStart(id)
		if c.home(id) == extra {
			landed++
		}
	}
	if landed == 0 {
		t.Error("48 new sessions and none landed on the joined replica")
	}
	if err := c.rt.AddReplica(ctx, extra); !errors.Is(err, ErrAlreadyMember) {
		t.Fatalf("duplicate add: %v, want ErrAlreadyMember", err)
	}
	if err := c.rt.RemoveReplica("http://nope:1"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("remove unknown: %v, want ErrNotMember", err)
	}
	if err := c.rt.RemoveReplica(c.names[0]); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := c.rt.RemoveReplica(c.names[1]); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := c.rt.RemoveReplica(extra); !errors.Is(err, ErrLastReplica) {
		t.Fatalf("remove last: %v, want ErrLastReplica", err)
	}
}

// TestRouterRemoveReplicaLazyRecovery: sessions homed on a removed member
// recover on their next operation — migrated, state intact, onto the new
// ring — with no admin involvement.
func TestRouterRemoveReplicaLazyRecovery(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	var id string
	for i := 0; ; i++ {
		id = fmt.Sprintf("rm-%d", i)
		c.mustStart(id)
		if c.home(id) == c.names[0] {
			break
		}
	}
	c.observeN(id, 6)
	if err := c.rt.RemoveReplica(c.names[0]); err != nil {
		t.Fatalf("remove: %v", err)
	}
	// The survivor gets the whole session: 1+...+7 + horizon 1 = 29.
	pred, err := c.rt.ObserveAndPredict(id, 7, 1)
	if err != nil {
		t.Fatalf("observe after removal: %v", err)
	}
	if pred != 29 {
		t.Errorf("post-removal prediction %g, want the full-history 29", pred)
	}
	if h := c.home(id); h != c.names[1] {
		t.Errorf("session recovered onto %s, want the survivor %s", h, c.names[1])
	}
}

// TestRouterAdminReplicasHTTP drives membership through the HTTP admin
// surface end to end, including every error status the handler maps.
func TestRouterAdminReplicasHTTP(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	c.rt.ProbeAll(context.Background())
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()

	post := func(body string) (int, ReplicaAdminResponse) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/admin/replicas", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST admin: %v", err)
		}
		defer resp.Body.Close()
		var out ReplicaAdminResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	row := func(r ReplicaAdminResponse, name string) ReplicaInfo {
		t.Helper()
		for _, ri := range r.Replicas {
			if ri.Name == name {
				return ri
			}
		}
		t.Fatalf("replica %s missing from admin listing %+v", name, r.Replicas)
		return ReplicaInfo{}
	}

	resp, err := http.Get(front.URL + "/v1/admin/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var listing ReplicaAdminResponse
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Replicas) != 3 {
		t.Fatalf("GET listing %+v, want 3 members", listing.Replicas)
	}

	if code, _ := post(`{"action":"add","replica":"` + c.names[0] + `"}`); code != http.StatusConflict {
		t.Fatalf("duplicate add -> %d, want 409", code)
	}
	if code, _ := post(`{"action":"add","replica":"ftp://nope"}`); code != http.StatusBadRequest {
		t.Fatalf("malformed add -> %d, want 400", code)
	}
	if code, _ := post(`{"action":"explode","replica":"x"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown action -> %d, want 400", code)
	}
	if code, _ := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON -> %d, want 400", code)
	}
	if code, _ := post(`{"action":"` + strings.Repeat("x", 1<<20) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the server's cap -> %d, want 413", code)
	}
	if code, _ := post(`{"action":"remove","replica":"` + c.names[0] + `"}}`); code != http.StatusBadRequest || len(c.rt.Replicas()) != 3 {
		t.Fatalf("trailing data -> %d with %d members, want 400 and nothing removed", code, len(c.rt.Replicas()))
	}

	extra := c.addStub(1)
	code, out := post(`{"action":"add","replica":"` + extra + `"}`)
	if code != http.StatusOK || len(out.Replicas) != 4 {
		t.Fatalf("add -> %d %+v, want 200 with 4 members", code, out.Replicas)
	}

	code, out = post(`{"action":"drain","replica":"` + extra + `"}`)
	if code != http.StatusOK {
		t.Fatalf("drain -> %d, want 200", code)
	}
	if out.Drain == nil {
		t.Fatal("drain response missing tally")
	}
	if got := row(out, extra); got.State != "draining" || got.Sessions != 0 {
		t.Fatalf("drained row %+v, want state=draining sessions=0", got)
	}

	code, out = post(`{"action":"undrain","replica":"` + extra + `"}`)
	if code != http.StatusOK {
		t.Fatalf("undrain -> %d, want 200", code)
	}
	if got := row(out, extra); got.State != "healthy" {
		t.Fatalf("undrained row %+v, want healthy", got)
	}

	code, out = post(`{"action":"remove","replica":"` + extra + `"}`)
	if code != http.StatusOK || len(out.Replicas) != 3 {
		t.Fatalf("remove -> %d %+v, want 200 with 3 members", code, out.Replicas)
	}
	if code, _ = post(`{"action":"remove","replica":"` + extra + `"}`); code != http.StatusNotFound {
		t.Fatalf("remove unknown -> %d, want 404", code)
	}
	if code, _ = post(`{"action":"remove","replica":"` + c.names[0] + `"}`); code != http.StatusOK {
		t.Fatalf("remove -> %d, want 200", code)
	}
	if code, _ = post(`{"action":"remove","replica":"` + c.names[1] + `"}`); code != http.StatusOK {
		t.Fatalf("remove -> %d, want 200", code)
	}
	if code, _ = post(`{"action":"remove","replica":"` + c.names[2] + `"}`); code != http.StatusConflict {
		t.Fatalf("remove last -> %d, want 409", code)
	}
}

// TestRouterMembershipMetricsScrape: the per-state member gauge and the
// handoff-outcome counters appear on /metrics with scenario-true values,
// scraped through the real handler and the repo's own parser.
func TestRouterMembershipMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := newStubCluster(t, Config{Metrics: reg}, 1, 1, 1)
	ctx := context.Background()
	c.rt.ProbeAll(ctx)
	var ids []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("ms-%d", i)
		c.mustStart(id)
		c.observeN(id, 6)
		ids = append(ids, id)
	}
	victim := c.home(ids[0])
	warmWant := len(homesByReplica(t, c, ids)[victim])
	if _, err := c.rt.DrainReplica(ctx, victim); err != nil {
		t.Fatalf("drain: %v", err)
	}

	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("metrics output failed to parse: %v", err)
	}
	vals := make(map[string]float64, len(samples))
	for _, s := range samples {
		vals[s.Key()] = s.Value
	}

	if v := vals[`cs2p_router_replicas{state="healthy"}`]; v != 2 {
		t.Errorf(`cs2p_router_replicas{state="healthy"} = %g, want 2`, v)
	}
	if v := vals[`cs2p_router_replicas{state="draining"}`]; v != 1 {
		t.Errorf(`cs2p_router_replicas{state="draining"} = %g, want 1`, v)
	}
	if v := vals[`cs2p_router_handoffs_total{outcome="warm"}`]; v != float64(warmWant) {
		t.Errorf(`cs2p_router_handoffs_total{outcome="warm"} = %g, want %d`, v, warmWant)
	}
	if v, ok := vals[`cs2p_router_handoffs_total{outcome="failed"}`]; !ok || v != 0 {
		t.Errorf(`cs2p_router_handoffs_total{outcome="failed"} = %g (present=%v), want 0 present`, v, ok)
	}
	if _, ok := vals[`cs2p_router_handoffs_total{outcome="replay"}`]; ok {
		t.Error(`cs2p_router_handoffs_total{outcome="replay"} still exported; replay is gone`)
	}
}
