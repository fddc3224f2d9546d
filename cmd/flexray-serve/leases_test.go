package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// leaseServer builds an in-process server tuned for lease tests: one
// shard per system, long TTL (expiry is exercised in internal/jobs).
func leaseServer(t *testing.T) *httptest.Server {
	t.Helper()
	return mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 2,
		Timeout:       time.Minute,
		JobWorkers:    1,
		LeaseTTL:      time.Minute,
		LeaseSystems:  1,
	})
}

// distributedSpec is a two-shard distributed campaign.
func distributedSpec() map[string]any {
	spec := campaignSpec([]int{2, 2}, 1, 7)
	spec["distribute"] = true
	return spec
}

// TestLeaseEndpointGuards: the /v1/leases endpoints answer the same
// guard statuses as the jobs endpoints — 405 on wrong methods, 415 on
// wrong content types, 400 on malformed bodies and on records for
// other systems than the leased ones, 404 on unknown leases, 413 on
// oversized payloads.
func TestLeaseEndpointGuards(t *testing.T) {
	ts := mustServer(t, serverConfig{
		Workers:       1,
		MaxConcurrent: 2,
		Timeout:       time.Minute,
		MaxBody:       512,
		LeaseTTL:      time.Minute,
		LeaseSystems:  1,
	})
	// A live lease, completed with one record of the right size for
	// the wrong system (another seed).
	job := submitJob(t, ts, distributedSpec())
	pollJob(t, ts, job.ID, jobs.StatusRunning)
	g := waitClaim(t, ts, "w")
	wrongSystem := fmt.Sprintf(`{"worker":"w","records":[{"index":0,"nodes":%d,"seed":%d}]}`,
		g.Specs[0].Nodes, g.Specs[0].Seed+1)
	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		want        int
	}{
		{"claim wrong method", http.MethodGet, "/v1/leases/claim", "", "", http.StatusMethodNotAllowed},
		{"renew wrong method", http.MethodGet, "/v1/leases/l-1/renew", "", "", http.StatusMethodNotAllowed},
		{"complete wrong method", http.MethodDelete, "/v1/leases/l-1/complete", "", "", http.StatusMethodNotAllowed},
		{"list wrong method", http.MethodDelete, "/v1/leases", "", "", http.StatusMethodNotAllowed},
		{"claim wrong content type", http.MethodPost, "/v1/leases/claim", "text/plain", `{"worker":"w"}`, http.StatusUnsupportedMediaType},
		{"claim malformed body", http.MethodPost, "/v1/leases/claim", "application/json", `{"worker":`, http.StatusBadRequest},
		{"claim missing worker", http.MethodPost, "/v1/leases/claim", "application/json", `{}`, http.StatusBadRequest},
		{"renew unknown lease", http.MethodPost, "/v1/leases/l-missing/renew", "application/json", `{"worker":"w"}`, http.StatusNotFound},
		{"complete unknown lease", http.MethodPost, "/v1/leases/l-missing/complete", "application/json", `{"worker":"w"}`, http.StatusNotFound},
		{"complete oversized body", http.MethodPost, "/v1/leases/l-missing/complete", "application/json",
			`{"worker":"w","error":"` + strings.Repeat("x", 2048) + `"}`, http.StatusRequestEntityTooLarge},
		{"complete records for another system", http.MethodPost, "/v1/leases/" + g.LeaseID + "/complete", "application/json",
			wrongSystem, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s %s: %d, want %d", c.method, c.path, resp.StatusCode, c.want)
			}
		})
	}
}

// claimLease claims a shard over HTTP and decodes the grant; nil means
// 204 (no work yet).
func claimLease(t *testing.T, ts *httptest.Server, worker string) *jobs.ShardGrant {
	t.Helper()
	resp, body := post(t, ts, "/v1/leases/claim", map[string]any{"worker": worker})
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusOK:
		var g jobs.ShardGrant
		if err := json.Unmarshal(body, &g); err != nil {
			t.Fatal(err)
		}
		return &g
	}
	t.Fatalf("claim: %d: %s", resp.StatusCode, body)
	return nil
}

// waitClaim polls the claim endpoint until the submitted job publishes
// a shard.
func waitClaim(t *testing.T, ts *httptest.Server, worker string) *jobs.ShardGrant {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if g := claimLease(t, ts, worker); g != nil {
			return g
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no shard lease became claimable")
	return nil
}

// TestLeaseConflictAndGone: a re-queued lease's old ID answers 409 for
// as long as the job lives, and 410 once the job is cancelled out from
// under an outstanding lease.
func TestLeaseConflictAndGone(t *testing.T) {
	ts := leaseServer(t)
	job := submitJob(t, ts, distributedSpec())
	pollJob(t, ts, job.ID, jobs.StatusRunning)

	// Shard failure re-queues it; the retired lease ID now conflicts.
	g := waitClaim(t, ts, "w1")
	resp, body := post(t, ts, "/v1/leases/"+g.LeaseID+"/complete",
		map[string]any{"worker": "w1", "error": "synthetic worker crash"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail-report: %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, "/v1/leases/"+g.LeaseID+"/complete",
		map[string]any{"worker": "w1", "error": "late duplicate"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("completing a retired lease: %d: %s, want 409", resp.StatusCode, body)
	}
	resp, body = post(t, ts, "/v1/leases/"+g.LeaseID+"/renew", map[string]any{"worker": "w1"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("renewing a retired lease: %d: %s, want 409", resp.StatusCode, body)
	}

	// Cancel the job while a lease is outstanding: the lease dies with
	// it and answers 410 from then on.
	g2 := waitClaim(t, ts, "w2")
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = post(t, ts, "/v1/leases/"+g2.LeaseID+"/complete",
			map[string]any{"worker": "w2", "error": "reporting into a cancelled job"})
		if resp.StatusCode == http.StatusGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("completing a lease of a cancelled job: %d: %s, want 410", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLeaseList: GET /v1/leases reports the shard table and registered
// workers.
func TestLeaseList(t *testing.T) {
	ts := leaseServer(t)
	job := submitJob(t, ts, distributedSpec())
	pollJob(t, ts, job.ID, jobs.StatusRunning)
	g := waitClaim(t, ts, "w1")

	resp, body := get(t, ts, "/v1/leases")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d: %s", resp.StatusCode, body)
	}
	var list jobs.LeaseList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Leases) != 2 {
		t.Fatalf("%d leases listed, want 2: %s", len(list.Leases), body)
	}
	foundGranted := false
	for _, l := range list.Leases {
		if l.ID == g.LeaseID {
			foundGranted = true
			if l.State != "granted" || l.Worker != "w1" || l.JobID != job.ID {
				t.Errorf("granted lease listed as %+v", l)
			}
		}
	}
	if !foundGranted {
		t.Errorf("claimed lease %s missing from %s", g.LeaseID, body)
	}
	if len(list.Workers) != 1 || list.Workers[0].ID != "w1" {
		t.Errorf("workers %+v, want exactly w1", list.Workers)
	}
}
