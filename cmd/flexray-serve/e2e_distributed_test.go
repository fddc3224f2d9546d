package main

// Multi-process end-to-end tests of distributed campaign execution: a
// real coordinator process plus worker peer processes, all re-execed
// from this test binary (so -race instrumentation carries over), talking
// over loopback HTTP exactly as a production fleet would. The chaos
// variant SIGKILLs a worker mid-shard and relies on lease expiry to
// re-queue its work.
//
// Child logs land in FLEXRAY_E2E_LOG_DIR when set (CI uploads them as
// artifacts on failure) or in the test's temp dir otherwise.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/jobs"
)

// TestMain lets the test binary double as flexray-serve: children are
// started with FLEXRAY_SERVE_CHILD=1 and plain serve arguments. A child
// started with holdAfterClaimEnv=1 runs its -peer worker with a hook
// that holds every claimed lease, heartbeating, until the process dies.
func TestMain(m *testing.M) {
	if os.Getenv("FLEXRAY_SERVE_CHILD") == "1" {
		if os.Getenv(holdAfterClaimEnv) == "1" {
			peerAfterClaim = func(ctx context.Context) { <-ctx.Done() }
		}
		os.Exit(runServe(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// holdAfterClaimEnv names the child environment switch of the
// hold-after-claim worker fault.
const holdAfterClaimEnv = "FLEXRAY_E2E_HOLD_AFTER_CLAIM"

// serveChild is one re-execed flexray-serve process.
type serveChild struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startServeChild launches the test binary as a flexray-serve process
// on an ephemeral port and waits until it serves /readyz.
func startServeChild(t *testing.T, name string, args ...string) *serveChild {
	t.Helper()
	return startServeChildEnv(t, name, nil, args...)
}

// startServeChildEnv is startServeChild with extra child environment
// variables ("KEY=value").
func startServeChildEnv(t *testing.T, name string, env []string, args ...string) *serveChild {
	t.Helper()
	logDir := os.Getenv("FLEXRAY_E2E_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	logPath := filepath.Join(logDir, t.Name()+"-"+name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), name+".addr")
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(os.Args[0], full...)
	cmd.Env = append(append(os.Environ(), "FLEXRAY_SERVE_CHILD=1"), env...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		t.Fatalf("starting %s: %v", name, err)
	}
	c := &serveChild{t: t, name: name, cmd: cmd, done: make(chan error, 1)}
	go func() {
		c.done <- cmd.Wait()
		logFile.Close()
	}()
	t.Cleanup(c.stop)
	t.Logf("%s: pid %d, log %s", name, cmd.Process.Pid, logPath)

	deadline := time.Now().Add(30 * time.Second)
	for c.url == "" {
		select {
		case err := <-c.done:
			c.done <- err
			t.Fatalf("%s exited during startup: %v (log %s)", name, err, logPath)
		default:
		}
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			c.url = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never wrote its address file (log %s)", name, logPath)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		resp, err := http.Get(c.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready (log %s)", name, logPath)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts the child down gracefully, escalating to SIGKILL.
func (c *serveChild) stop() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// kill SIGKILLs the child — no drain, no final lease report.
func (c *serveChild) kill() {
	c.t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		c.t.Fatalf("killing %s: %v", c.name, err)
	}
	<-c.done
	c.done <- fmt.Errorf("%s already killed", c.name)
	c.t.Logf("%s: killed", c.name)
}

// childPost / childGet are URL-based cousins of the httptest helpers.
func childPost(t *testing.T, base, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func childGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submitChildJob submits a job spec to a child coordinator.
func submitChildJob(t *testing.T, base string, spec map[string]any) jobs.Job {
	t.Helper()
	code, body := childPost(t, base, "/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, body)
	}
	var job jobs.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	return job
}

// pollChildJob polls a child coordinator until the job lands on want.
func pollChildJob(t *testing.T, base, id string, want jobs.Status, timeout time.Duration) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, body := childGet(t, base, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll: %d: %s", code, body)
		}
		var job jobs.Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == want {
			return job
		}
		if job.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, job.Status, job.Error, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out polling job %s for %s", id, want)
	return jobs.Job{}
}

// childRecords fetches and canonicalises a finished campaign's records
// (wall-clock telemetry zeroed, everything else byte-exact).
func childRecords(t *testing.T, base, id string) []byte {
	t.Helper()
	code, body := childGet(t, base, "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, body)
	}
	var res struct {
		Records []campaign.Record `json:"records"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		for k := range res.Records[i].Runs {
			res.Records[i].Runs[k].ElapsedUs = 0
		}
	}
	data, err := json.Marshal(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scrapeMetric reads one counter/gauge sample from a child's /metrics
// exposition; labels is a substring filter ("" matches the bare name).
func scrapeMetric(t *testing.T, base, name, labels string) float64 {
	t.Helper()
	code, body := childGet(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // longer metric name sharing the prefix
		}
		if labels != "" && !strings.Contains(rest, labels) {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

// distributedE2ESpec parameterises the e2e campaigns.
func distributedE2ESpec(nodeCounts []int, tuning map[string]any, distribute bool) map[string]any {
	return map[string]any{
		"kind":       "campaign",
		"algorithms": []string{"bbc", "obc-cf"},
		"tuning":     tuning,
		"distribute": distribute,
		"population": map[string]any{
			"node_counts":     nodeCounts,
			"apps_per_count":  1,
			"seed":            11,
			"deadline_factor": 2.0,
		},
	}
}

// TestDistributedCampaignMultiProcess: a coordinator plus two worker
// processes drain a sharded campaign; the merged result is
// bit-identical (modulo wall-clock telemetry) to the same campaign run
// serially inside the coordinator, and both workers contributed shards.
func TestDistributedCampaignMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	coord := startServeChild(t, "coordinator",
		"-store", filepath.Join(t.TempDir(), "jobs.jsonl"),
		"-lease-ttl", "10s", "-lease-systems", "1",
		"-job-workers", "1", "-workers", "1")
	w1 := startServeChild(t, "worker1", "-peer", coord.url, "-peer-id", "w1", "-workers", "1")
	w2 := startServeChild(t, "worker2", "-peer", coord.url, "-peer-id", "w2", "-workers", "1")

	counts := []int{2, 2, 3, 3, 2, 2}
	serial := submitChildJob(t, coord.url, distributedE2ESpec(counts, quickServeOptions(), false))
	pollChildJob(t, coord.url, serial.ID, jobs.StatusDone, 3*time.Minute)
	want := childRecords(t, coord.url, serial.ID)

	dist := submitChildJob(t, coord.url, distributedE2ESpec(counts, quickServeOptions(), true))
	done := pollChildJob(t, coord.url, dist.ID, jobs.StatusDone, 3*time.Minute)
	if done.Progress.Completed != len(counts) {
		t.Errorf("distributed progress %+v, want %d completed", done.Progress, len(counts))
	}
	got := childRecords(t, coord.url, dist.ID)
	if string(got) != string(want) {
		t.Errorf("distributed result differs from serial:\n got %s\nwant %s", got, want)
	}

	if n := scrapeMetric(t, coord.url, "flexray_lease_completed_total", ""); n != float64(len(counts)) {
		t.Errorf("coordinator completed %v leases, want %d", n, len(counts))
	}
	// Both peers must have executed shards, and together all of them.
	d1 := scrapeMetric(t, w1.url, "flexray_worker_shards_total", `outcome="done"`)
	d2 := scrapeMetric(t, w2.url, "flexray_worker_shards_total", `outcome="done"`)
	if d1 < 1 || d2 < 1 || d1+d2 != float64(len(counts)) {
		t.Errorf("worker shard counts %v + %v, want both > 0 summing to %d", d1, d2, len(counts))
	}
}

// TestDistributedChaosWorkerKill: SIGKILL a worker while it holds a
// lease. The lease must expire and re-queue, the campaign must still
// complete on the surviving worker, and the merged result must match a
// serial run exactly. The victim runs the hold-after-claim fault, so
// it never finishes the shard it claims: the kill always lands on a
// held lease, however fast shards run.
func TestDistributedChaosWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos e2e")
	}
	tuning := quickServeOptions()

	coord := startServeChild(t, "coordinator",
		"-store", filepath.Join(t.TempDir(), "jobs.jsonl"),
		"-lease-ttl", "750ms", "-lease-systems", "1",
		"-job-workers", "1", "-workers", "1")
	victim := startServeChildEnv(t, "victim", []string{holdAfterClaimEnv + "=1"},
		"-peer", coord.url, "-peer-id", "victim", "-workers", "1")
	startServeChild(t, "survivor", "-peer", coord.url, "-peer-id", "survivor", "-workers", "1")

	counts := []int{2, 3, 2, 3, 2}
	dist := submitChildJob(t, coord.url, distributedE2ESpec(counts, tuning, true))

	// Wait until the victim holds a granted shard, then pull the plug —
	// no drain, no goodbye lease report.
	deadline := time.Now().Add(time.Minute)
	for {
		_, body := childGet(t, coord.url, "/v1/leases")
		var list jobs.LeaseList
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		holding := false
		for _, l := range list.Leases {
			if l.State == "granted" && l.Worker == "victim" {
				holding = true
			}
		}
		if holding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never claimed a shard; leases: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.kill()

	done := pollChildJob(t, coord.url, dist.ID, jobs.StatusDone, 4*time.Minute)
	if done.Progress.Completed != len(counts) {
		t.Errorf("progress %+v after chaos, want %d completed", done.Progress, len(counts))
	}
	if n := scrapeMetric(t, coord.url, "flexray_lease_expired_total", ""); n < 1 {
		t.Errorf("flexray_lease_expired_total = %v, want >= 1 (the killed worker's lease must expire)", n)
	}
	if n := scrapeMetric(t, coord.url, "flexray_lease_granted_total", ""); n < float64(len(counts))+1 {
		t.Errorf("flexray_lease_granted_total = %v, want > %d (the lost shard re-granted)", n, len(counts))
	}

	serial := submitChildJob(t, coord.url, distributedE2ESpec(counts, tuning, false))
	pollChildJob(t, coord.url, serial.ID, jobs.StatusDone, 4*time.Minute)
	want := childRecords(t, coord.url, serial.ID)
	if got := childRecords(t, coord.url, dist.ID); string(got) != string(want) {
		t.Errorf("post-chaos result differs from serial:\n got %s\nwant %s", got, want)
	}
}

// TestShutdownWithHeldClaims: SIGTERM to a coordinator whose workers
// hold claims answers the claims with 503 at once — not after the
// hold period — and the process exits inside its 15s drain grace.
func TestShutdownWithHeldClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	coord := startServeChild(t, "coordinator", "-lease-ttl", "1m")
	codes := make(chan int, 2)
	for _, id := range []string{"w1", "w2"} {
		go func() {
			resp, err := http.Post(coord.url+"/v1/leases/claim", "application/json",
				strings.NewReader(`{"worker":"`+id+`"}`))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, body := childGet(t, coord.url, "/v1/leases")
		var list jobs.LeaseList
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Workers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("claims never held; leases: %s", body)
		}
	}

	start := time.Now()
	if err := coord.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		select {
		case code := <-codes:
			if code != http.StatusServiceUnavailable {
				t.Errorf("held claim answered %d at shutdown, want 503", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("held claim not answered within 5s of SIGTERM")
		}
	}
	select {
	case err := <-coord.done:
		coord.done <- err
		if err != nil {
			t.Errorf("coordinator exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator still running 15s after SIGTERM")
	}
	t.Logf("claims answered and coordinator exited %v after SIGTERM", time.Since(start))
}
