package jobs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// serveLeaseAPI serves m's lease endpoints on a loopback listener,
// closed at test cleanup, and counts the claim requests it receives.
func serveLeaseAPI(t *testing.T, m *Manager) (url string, claims *atomic.Int64) {
	t.Helper()
	mux := http.NewServeMux()
	NewLeaseAPI(m).Register(mux)
	claims = new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/leases/claim" {
			claims.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, claims
}

// claimAnswer is the outcome of one claim request.
type claimAnswer struct {
	status int
	grant  *ShardGrant
	at     time.Time // when the answer arrived
	err    error
}

// postClaim sends a claim for worker in the background; its answer
// arrives on the returned channel.
func postClaim(url, worker string) <-chan claimAnswer {
	ch := make(chan claimAnswer, 1)
	go func() {
		resp, err := http.Post(url+"/v1/leases/claim", "application/json",
			strings.NewReader(`{"worker":"`+worker+`"}`))
		if err != nil {
			ch <- claimAnswer{err: err, at: time.Now()}
			return
		}
		defer resp.Body.Close()
		a := claimAnswer{status: resp.StatusCode, at: time.Now()}
		if resp.StatusCode == http.StatusOK {
			a.grant = new(ShardGrant)
			a.err = json.NewDecoder(resp.Body).Decode(a.grant)
		}
		ch <- a
	}()
	return ch
}

// waitHeld waits until worker's claim has registered it with the
// manager. Registration and the no-work scan share one lock with the
// taking of the wake channel, so from then on no wake-up is lost.
func waitHeld(t *testing.T, m *Manager, worker string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		for _, w := range m.Leases().Workers {
			if w.ID == worker {
				return
			}
		}
	}
	t.Fatalf("worker %s never registered a claim", worker)
}

// awaitAnswer waits for a held claim's answer.
func awaitAnswer(t *testing.T, ch <-chan claimAnswer, within time.Duration) claimAnswer {
	t.Helper()
	select {
	case a := <-ch:
		if a.err != nil {
			t.Fatalf("claim: %v", a.err)
		}
		return a
	case <-time.After(within):
		t.Fatalf("held claim not answered within %v", within)
	}
	return claimAnswer{}
}

// TestClaimHeldUntilSubmit: a claim posted while no shard is pending is
// held, and granted as soon as a distributed submit registers its
// shards — within tens of milliseconds, well under the 250ms an idle
// worker used to sleep between polls.
func TestClaimHeldUntilSubmit(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	url, _ := serveLeaseAPI(t, m)
	answer := postClaim(url, "early")
	waitHeld(t, m, "early")

	job := submitDistributed(t, m, 1)
	a := awaitAnswer(t, answer, 5*time.Second)
	if a.status != http.StatusOK || a.grant.JobID != job.ID {
		t.Fatalf("held claim answered %d %+v, want a grant of job %s", a.status, a.grant, job.ID)
	}
	started, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	lag := a.at.Sub(started.StartedAt)
	t.Logf("grant arrived %v after the job started", lag)
	if lag > 250*time.Millisecond {
		t.Errorf("grant arrived %v after the job started, want well under 250ms", lag)
	}
}

// TestClaimHeldWakesOnExpiry: a held claim is granted the shard an
// expired lease returns to pending, as its next attempt.
func TestClaimHeldWakesOnExpiry(t *testing.T) {
	const ttl = 10 * time.Second
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: ttl})
	url, _ := serveLeaseAPI(t, m)
	submitDistributed(t, m, 1)
	g, err := m.ClaimLease("doomed")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	answer := postClaim(url, "healthy")
	waitHeld(t, m, "healthy")

	// The janitor's expiry pass, run as if the TTL had passed.
	m.expireLeases(time.Now().Add(ttl + time.Second))
	a := awaitAnswer(t, answer, 5*time.Second)
	if a.status != http.StatusOK || a.grant.Shard != g.Shard || a.grant.Attempt != 2 {
		t.Fatalf("held claim answered %d %+v, want attempt 2 of shard %d", a.status, a.grant, g.Shard)
	}
}

// TestClaimHeldWakesOnFailure: a held claim is granted the shard a
// worker-reported failure re-queues.
func TestClaimHeldWakesOnFailure(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	url, _ := serveLeaseAPI(t, m)
	submitDistributed(t, m, 1)
	g, err := m.ClaimLease("flaky")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	answer := postClaim(url, "steady")
	waitHeld(t, m, "steady")

	if err := m.CompleteLease(g.LeaseID, "flaky", nil, "synthetic crash"); err != nil {
		t.Fatal(err)
	}
	a := awaitAnswer(t, answer, 5*time.Second)
	if a.status != http.StatusOK || a.grant.Shard != g.Shard || a.grant.Attempt != 2 {
		t.Fatalf("held claim answered %d %+v, want attempt 2 of shard %d", a.status, a.grant, g.Shard)
	}
}

// TestClaimHeldAnswers503OnClose: closing the manager answers every
// held claim with 503 at once, not after the hold period.
func TestClaimHeldAnswers503OnClose(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseTTL: time.Minute})
	url, _ := serveLeaseAPI(t, m)
	answers := []<-chan claimAnswer{postClaim(url, "w1"), postClaim(url, "w2")}
	waitHeld(t, m, "w1")
	waitHeld(t, m, "w2")

	closed := time.Now()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, ch := range answers {
		a := awaitAnswer(t, ch, claimHold/2)
		if a.status != http.StatusServiceUnavailable {
			t.Errorf("held claim answered %d on close, want 503", a.status)
		}
		t.Logf("answered %v after Close began", a.at.Sub(closed))
	}
}

// TestIdleWorkerClaimsOncePerHold: an idle worker makes at most one
// claim per hold period (the lease TTL here), though its retry wait for
// failed claims is only a millisecond.
func TestIdleWorkerClaimsOncePerHold(t *testing.T) {
	const ttl, window = 100 * time.Millisecond, 600 * time.Millisecond
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseTTL: ttl})
	url, claims := serveLeaseAPI(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewWorker(WorkerOptions{ID: "idle", BaseURL: url, Poll: time.Millisecond, Logf: t.Logf}).Run(ctx)
	}()
	time.Sleep(window)
	n := claims.Load()
	cancel()
	<-done
	if limit := int64(window/ttl) + 2; n < 1 || n > limit {
		t.Errorf("idle worker made %d claims in %v, want 1..%d (one per %v hold)", n, window, limit, ttl)
	}
}
