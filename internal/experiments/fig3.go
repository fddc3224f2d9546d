// Package experiments regenerates every figure of the paper's
// evaluation: the illustrative ST/DYN optimisation examples (Fig. 3,
// Fig. 4), the protocol mechanics example (Fig. 1), the DYN-length
// characterisation (Fig. 7), the heuristic evaluation (Fig. 9, both
// panels) and the in-text cruise-controller case study. Each experiment
// returns plain row/series data; the cmd/flexray-bench tool and the
// root bench_test.go print or assert them.
package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// us is the one-microsecond time quantum the illustrative figures are
// drawn in.
const us = units.Microsecond

// Fig3Variant selects one of the three static-segment configurations of
// Fig. 3.
type Fig3Variant int

const (
	// Fig3a: two slots of length 4 (gdCycle = 2 x 4); m3 waits for
	// the second bus cycle.
	Fig3a Fig3Variant = iota
	// Fig3b: three slots of length 4 (gdCycle = 3 x 4); N2 owns two
	// slots and sends both its messages in the first cycle.
	Fig3b
	// Fig3c: two slots of length 5 (gdCycle = 2 x 5); m2 and m3 are
	// packed into one frame.
	Fig3c
)

func (v Fig3Variant) String() string {
	return [...]string{"Fig3a", "Fig3b", "Fig3c"}[v]
}

// Fig3System builds the two-node system of Fig. 3: N1 sends ST message
// m1 (4 time units), N2 sends m2 (3) and m3 (2). Producer tasks are
// zero-WCET SCS tasks released at time zero, mirroring the figure's
// "all messages ready at the start" setting.
func Fig3System() *model.System {
	b := model.NewBuilder("fig3", 2)
	g := b.Graph("G", 100*us, 100*us)
	t1 := b.Task(g, "t1", 0, 0, model.SCS)
	t2 := b.Task(g, "t2", 1, 0, model.SCS)
	t3 := b.Task(g, "t3", 1, 0, model.SCS)
	r1 := b.PrioTask(g, "r1", 1, 0, 1)
	r2 := b.PrioTask(g, "r2", 0, 0, 1)
	r3 := b.PrioTask(g, "r3", 0, 0, 1)
	b.Message("m1", model.ST, 4*us, t1, r1, 0)
	b.Message("m2", model.ST, 3*us, t2, r2, 0)
	b.Message("m3", model.ST, 2*us, t3, r3, 0)
	return b.MustBuild()
}

// Fig3Config returns the bus configuration of the requested variant.
func Fig3Config(v Fig3Variant) *flexray.Config {
	cfg := &flexray.Config{
		MinislotLen: us,
		FrameID:     map[model.ActID]int{},
		Policy:      flexray.LatestTxPerFrame,
	}
	switch v {
	case Fig3a:
		cfg.StaticSlotLen = 4 * us
		cfg.NumStaticSlots = 2
		cfg.StaticSlotOwner = []model.NodeID{0, 1}
	case Fig3b:
		cfg.StaticSlotLen = 4 * us
		cfg.NumStaticSlots = 3
		cfg.StaticSlotOwner = []model.NodeID{0, 1, 1}
	case Fig3c:
		cfg.StaticSlotLen = 5 * us
		cfg.NumStaticSlots = 2
		cfg.StaticSlotOwner = []model.NodeID{0, 1}
	}
	return cfg
}

// Fig3Row is the outcome of one Fig. 3 variant.
type Fig3Row struct {
	Variant  Fig3Variant
	GdCycle  units.Duration
	R3       units.Duration // response time of m3 (the figure's headline)
	R1, R2   units.Duration
	PaperR3  units.Duration
	Analysed units.Duration // holistic analysis bound for m3
}

// Fig3 regenerates the three rows of Fig. 3. The R3 column must equal
// the paper's 16, 12, 10 exactly.
func Fig3() ([]Fig3Row, error) {
	paper := map[Fig3Variant]units.Duration{Fig3a: 16 * us, Fig3b: 12 * us, Fig3c: 10 * us}
	var rows []Fig3Row
	for _, v := range []Fig3Variant{Fig3a, Fig3b, Fig3c} {
		sys := Fig3System()
		cfg := Fig3Config(v)
		if err := cfg.Validate(flexray.DefaultParams(), sys); err != nil {
			return nil, fmt.Errorf("fig3 %v: %w", v, err)
		}
		table, res, err := sched.Build(sys, cfg, sched.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("fig3 %v: %w", v, err)
		}
		simulator, err := sim.New(sys, cfg, table, sim.DefaultOptions())
		if err != nil {
			return nil, err
		}
		sr, err := simulator.Run()
		if err != nil {
			return nil, err
		}
		id := func(name string) model.ActID {
			for i := range sys.App.Acts {
				if sys.App.Acts[i].Name == name {
					return sys.App.Acts[i].ID
				}
			}
			panic("unknown activity " + name)
		}
		analysed, _ := res.Response(id("m3"))
		rows = append(rows, Fig3Row{
			Variant:  v,
			GdCycle:  cfg.Cycle(),
			R1:       sr.MaxResponse[id("m1")],
			R2:       sr.MaxResponse[id("m2")],
			R3:       sr.MaxResponse[id("m3")],
			PaperR3:  paper[v],
			Analysed: analysed,
		})
	}
	return rows, nil
}

// actByName resolves an activity id by name; figure builders use stable
// names.
func actByName(sys *model.System, name string) model.ActID {
	for i := range sys.App.Acts {
		if sys.App.Acts[i].Name == name {
			return sys.App.Acts[i].ID
		}
	}
	panic("experiments: unknown activity " + name)
}

// analyse is a small helper running the full pipeline for a fixed
// configuration.
func analyse(sys *model.System, cfg *flexray.Config) (*analysis.Result, error) {
	_, res, err := sched.Build(sys, cfg, sched.DefaultOptions())
	return res, err
}
