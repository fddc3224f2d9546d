package analysis

import (
	"strings"
	"testing"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

// saturatingSystem shares FrameID 1 between m-slow and the
// higher-priority m-fast, whose 20µs period equals the bus cycle: every
// cycle carries an m-fast instance, so the Eq. (3) window of m-slow
// grows past its divergence cap.
func saturatingSystem(t testing.TB) (*model.System, *flexray.Config) {
	t.Helper()
	b := model.NewBuilder("sat-dyn", 2)
	fast := b.Graph("fast", 20*us, 20*us)
	slow := b.Graph("slow", 200*us, 200*us)
	fs := b.Task(fast, "fs", 0, 0, model.SCS)
	fr := b.PrioTask(fast, "fr", 1, 0, 1)
	ss := b.Task(slow, "ss", 0, 0, model.SCS)
	sr := b.PrioTask(slow, "sr", 1, 0, 1)
	b.Message("m-fast", model.DYN, 2*us, fs, fr, 9)
	b.Message("m-slow", model.DYN, 2*us, ss, sr, 1)
	sys := b.MustBuild()
	cfg := &flexray.Config{
		StaticSlotLen:   8 * us,
		NumStaticSlots:  1,
		StaticSlotOwner: []model.NodeID{0},
		MinislotLen:     us,
		NumMinislots:    12,
		FrameID: map[model.ActID]int{
			actID(t, sys, "m-fast"): 1,
			actID(t, sys, "m-slow"): 1,
		},
		Policy: flexray.LatestTxPerFrame,
	}
	return sys, cfg
}

// TestExplainDYNConsistentWithRun requires every breakdown to report
// the response Run reported, saturated messages included (their
// response is the divergence cap itself), and the Eq. (2)-(3) identity
// to hold for every converged one.
func TestExplainDYNConsistentWithRun(t *testing.T) {
	saturated := 0
	for _, build := range []func(testing.TB) (*model.System, *flexray.Config){fig4System, saturatingSystem} {
		sys, cfg := build(t)
		a := newAnalyzer(t, sys, cfg)
		res := a.Run()
		for _, m := range sys.App.Messages(int(model.DYN)) {
			d, ok := a.ExplainDYN(m)
			if !ok {
				t.Fatalf("%s: ExplainDYN(%d) not applicable", sys.Name, m)
			}
			if d.Response != responseOf(res, m) {
				t.Errorf("%s: message %d: breakdown response %v != analysed %v (%v)", sys.Name, m, d.Response, responseOf(res, m), d)
			}
			if d.Saturated {
				saturated++
				if d.BusCycles == 0 {
					t.Errorf("%s: message %d saturated without filled cycles: %v", sys.Name, m, d)
				}
				continue
			}
			// The identity of Eq. (2)-(3) must hold exactly.
			sum := units.SatAdd(d.Jitter,
				units.SatAdd(d.Sigma,
					units.SatAdd(units.Duration(d.BusCycles)*d.CycleLen,
						units.SatAdd(d.WPrime, d.Comm))))
			if sum != d.Response {
				t.Errorf("%s: message %d: components sum to %v, response %v", sys.Name, m, sum, d.Response)
			}
		}
	}
	if saturated == 0 {
		t.Error("no saturated breakdown: the saturating system no longer saturates")
	}
}

func TestExplainDYNFig4Components(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	a.Run()
	m1 := actID(t, sys, "m1")
	d, ok := a.ExplainDYN(m1)
	if !ok {
		t.Fatal("no breakdown for m1")
	}
	// m1: fid 1, no interference at all: σ = 20-8 = 12, 0 filled
	// cycles, w' = STbus = 8, C = 7.
	if d.Sigma != 12*us || d.BusCycles != 0 || d.WPrime != 8*us || d.Comm != 7*us {
		t.Errorf("m1 breakdown = %+v", d)
	}
	if d.Saturated {
		t.Error("m1 should converge")
	}
	if !strings.Contains(d.String(), "σ") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestExplainAllOrdersByFrameID(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	a.Run()
	all := a.ExplainAll()
	if len(all) != 3 {
		t.Fatalf("breakdowns = %d, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if cfg.FrameID[all[i].Msg] < cfg.FrameID[all[i-1].Msg] {
			t.Error("ExplainAll not ordered by FrameID")
		}
	}
}

func TestExplainDYNRejectsNonDYN(t *testing.T) {
	sys, cfg := fig4System(t)
	a := newAnalyzer(t, sys, cfg)
	a.Run()
	if _, ok := a.ExplainDYN(actID(t, sys, "t1")); ok {
		t.Error("task accepted")
	}
	delete(cfg.FrameID, actID(t, sys, "m3"))
	a2 := newAnalyzer(t, sys, cfg)
	a2.Run()
	if _, ok := a2.ExplainDYN(actID(t, sys, "m3")); ok {
		t.Error("FrameID-less message accepted")
	}
}
