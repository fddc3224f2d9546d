package perfreg

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestSessionAllocsPinned is the allocation-determinism pin: a
// steady-state core.Session performs exactly SessionAllocsPerMix heap
// allocations per pass over the shared candidate mix. The count is a
// pure function of the code path (no timing, no scheduling), so any
// change — a new allocation in the analyzer reset, a dropped pooled
// buffer — fails this test instead of silently eroding the
// zero-allocation work of PR 2. Update SessionAllocsPerMix (and the
// README, which quotes it) only for a deliberate, understood change.
func TestSessionAllocsPinned(t *testing.T) {
	// The exact count is only a contract for one toolchain line: Go
	// releases legitimately shift stdlib allocation behaviour, which
	// is also why the CI perf job pins go 1.24.x. Other toolchains
	// (the matrix's "stable" leg) skip rather than fight the pin.
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		t.Skipf("allocation pin is contracted against the go1.24 line; running %s", runtime.Version())
	}
	sys, err := SessionSystem()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := SessionConfigs(sys)
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(sys, sched.DefaultOptions())
	// Nothing on the session path draws from a sync.Pool (internal/
	// has none), so a collection cannot move the count; GC is held off
	// only to keep collector work out of the measured window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	// Two full passes reach steady state: the plan's table and the
	// analyzer's slabs have grown to their working size.
	for i := 0; i < 2*len(cfgs); i++ {
		if res, _ := sess.Eval(cfgs[i%len(cfgs)]); res == nil {
			t.Fatalf("warmup: config %d infeasible", i%len(cfgs))
		}
	}
	got := testing.AllocsPerRun(4, func() {
		for _, c := range cfgs {
			if res, _ := sess.Eval(c); res == nil {
				t.Fatal("candidate unexpectedly infeasible")
			}
		}
	})
	if int64(got) != SessionAllocsPerMix {
		t.Errorf("session evaluation allocates %v per %d-candidate mix, pinned %d (%.2f vs %.2f per eval)",
			got, len(cfgs), int64(SessionAllocsPerMix),
			got/float64(len(cfgs)), float64(SessionAllocsPerMix)/float64(len(cfgs)))
	}
}

// TestSessionAllocsDocumented keeps the README's allocation claim in
// lockstep with the pinned constant: the prose must quote the exact
// number the pin enforces.
func TestSessionAllocsDocumented(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d allocations", SessionAllocsPerMix)
	if !strings.Contains(string(data), want) {
		t.Errorf("README.md does not quote the pinned session allocation count %q", want)
	}
}

// bytesTolPct is how far a scenario's B/op may move from its pin, in
// percent. Counts are pinned exactly where they repeat; bytes get this
// slack because buffers that grow with timing (span store, HTTP, job
// events) round to different size classes from run to run.
const bytesTolPct = 10

// allocPin is one row of the allocation gate.
type allocPin struct {
	allocs int64 // allocs/op pin
	spread int64 // allowed distance of allocs/op from the pin; 0 = exact
	bytes  int64 // B/op pin, held to within bytesTolPct
	race   bool  // the count also holds under -race
	io     bool  // the op does file or HTTP I/O: pinned on linux only
}

// allocPins is the allocation gate: one row per Suite scenario,
// measured by measureAllocs at the scenario's AllocWarmup/AllocOps in
// a go test build (no PGO; see OPERATIONS.md for the PGO counts).
// Non-serial rows run at GOMAXPROCS 2 (fig7/sweep reads 140, 197 and
// 309 at 1, 2 and 4); serial rows read the same at GOMAXPROCS 1, 2
// and 4.
//
// A row is exact where every run agreed: each exact row read the same
// count in all 50 runs on 2 CPUs (30 fresh processes one at a time
// and 20 two at once; CHANGES.md lists them). The other rows were
// never identical in five runs; their comments cite the measured
// min-max over those 50 runs, and their spread covers it with a
// margin about half as wide again on either side, because their
// counts move with goroutine scheduling.
//
// A change that moves a count edits its pin and says why in
// CHANGES.md.
var allocPins = map[string]allocPin{
	"eval/fresh":        {allocs: 527, bytes: 64352},
	"eval/session":      {allocs: 3, bytes: 865, race: true},
	"sched/build-table": {allocs: 0, bytes: 0, race: true},
	// 3333-3335: the campaign's goroutines interleave differently.
	"campaign/serial": {allocs: 3334, spread: 3, bytes: 455700},
	// 3335-3336.
	"campaign/parallel": {allocs: 3335, spread: 3, bytes: 455700},
	// 2886-2890: queue, progress events and subscription wake-ups.
	"jobs/pipeline": {allocs: 2888, spread: 7, bytes: 307500},
	// 3774-3806: the workers live for one op and make the same
	// claims in every op; what moves is how the engine's, the
	// manager's and the HTTP goroutines interleave.
	"jobs/distributed-drain": {allocs: 3790, spread: 28, bytes: 395000, io: true},
	"serve/traced-request":   {allocs: 38, bytes: 8029},
	"lint/report":            {allocs: 1752, bytes: 199580},
	"fig7/sweep":             {allocs: 197, bytes: 24300},
	// 2786-2788.
	"fig9/quick":    {allocs: 2787, spread: 3, bytes: 354100},
	"store/replay":  {allocs: 7, bytes: 1312, race: true, io: true},
	"store/compact": {allocs: 2, bytes: 881, io: true},
}

// check reports how a measured allocs/op and B/op break the pin, or
// nil.
func (p allocPin) check(allocs, bytes int64) error {
	var errs []error
	if d := allocs - p.allocs; d < -p.spread || d > p.spread {
		errs = append(errs, fmt.Errorf("%d allocs/op, pinned %d±%d", allocs, p.allocs, p.spread))
	}
	if d := bytes - p.bytes; 100*max(d, -d) > bytesTolPct*p.bytes {
		errs = append(errs, fmt.Errorf("%d B/op, pinned %d±%d%%", bytes, p.bytes, bytesTolPct))
	}
	return errors.Join(errs...)
}

// measurePin runs a scenario's setup and its allocation pass, as
// Measure does after timing.
func measurePin(sc *Scenario) (allocs, bytes int64, err error) {
	s := sc.normalized()
	op, cleanup, err := s.Setup()
	if err != nil {
		return 0, 0, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	return measureAllocs(op, s.AllocWarmup, s.AllocOps, s.OpsPerCall, s.Serial)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestScenarioAllocsPinned is the allocation gate of the perf suite:
// every Suite scenario's allocs/op and B/op must match its allocPins
// row.
func TestScenarioAllocsPinned(t *testing.T) {
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		t.Skipf("allocation pins are contracted against the go1.24 line; running %s", runtime.Version())
	}
	// Before Suite: campaign/parallel sizes its engine from GOMAXPROCS
	// when the suite is built.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	suite := Suite()
	named := map[string]bool{}
	for _, sc := range suite {
		named[sc.Name] = true
		t.Run(sc.Name, func(t *testing.T) {
			pin, ok := allocPins[sc.Name]
			switch {
			case !ok:
				t.Fatal("scenario has no allocPins row")
			case raceEnabled && !pin.race:
				t.Skip("the race detector allocates on this path, so its count differs under -race")
			case pin.io && runtime.GOOS != "linux":
				t.Skipf("the op does file or HTTP I/O, pinned on linux only; running %s", runtime.GOOS)
			}
			allocs, bytes, err := measurePin(sc)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d allocs/op, %d B/op", allocs, bytes)
			if err := pin.check(allocs, bytes); err != nil {
				t.Error(err)
			}
		})
	}
	for name := range allocPins {
		if !named[name] {
			t.Errorf("allocPins row %q names no Suite scenario", name)
		}
	}
}

// TestAllocPinCatchesExtraAllocation checks the checker: a scenario
// that allocates one object per op more than its pin fails it, and the
// same scenario at its pin passes.
func TestAllocPinCatchesExtraAllocation(t *testing.T) {
	fixture := func(n int) *Scenario {
		return &Scenario{
			Name:   "test/alloc",
			Unit:   "op",
			Serial: true,
			Setup: func() (func() error, func(), error) {
				var keep []*[64]byte
				return func() error {
					keep = keep[:0]
					for i := 0; i < n; i++ {
						keep = append(keep, new([64]byte))
					}
					return nil
				}, nil, nil
			},
		}
	}
	pin := allocPin{allocs: 2, bytes: 128}
	for n, wantErr := range map[int]string{2: "", 3: "3 allocs/op, pinned 2"} {
		allocs, bytes, err := measurePin(fixture(n))
		if err != nil {
			t.Fatal(err)
		}
		err = pin.check(allocs, bytes)
		switch {
		case wantErr == "" && err != nil:
			t.Errorf("%d allocations per op against a pin of 2: %v", n, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%d allocations per op against a pin of 2: got %v, want %q", n, err, wantErr)
		}
	}
}
