package perfreg

import (
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
	// A GC cycle during the measured window empties the analyzer's
	// sync.Pools, charging their refill (+1) to whichever run it lands
	// in. Collect once, then hold GC off for the measurement so the
	// count really is a pure function of the code path.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	// Two full passes reach steady state: the plan's table has grown
	// to its working size and the analyzer pools are filled (after the
	// flush above).
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
