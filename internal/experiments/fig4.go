package experiments

import (
	"fmt"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// Fig4Variant selects one of the three dynamic-segment configurations
// of Fig. 4.
type Fig4Variant int

const (
	// Fig4a: FrameIDs per Table A (m1:1, m2:2, m3:1), 12 minislots.
	// m1 and m3 share a slot, so m3 waits a full cycle and m2 is
	// pushed behind it: R2 = 37.
	Fig4a Fig4Variant = iota
	// Fig4b: FrameIDs per Table B (m1:1, m2:2, m3:3), 12 minislots.
	// m3 gets its own slot and goes out in cycle one: R2 = 35.
	Fig4b
	// Fig4c: Table B with the segment enlarged to 13 minislots; m2
	// now fits in the first cycle: R2 = 21.
	Fig4c
)

func (v Fig4Variant) String() string {
	return [...]string{"Fig4a", "Fig4b", "Fig4c"}[v]
}

// Fig4System builds the two-node system of Fig. 4: N1 sends DYN
// messages m1 (7 minislots) and m3 (3 minislots), N2 sends m2 (6
// minislots); priority(m1) > priority(m3). The static segment is one
// slot of 8 time units ("the length of the ST slot has been set to 8").
func Fig4System() *model.System {
	b := model.NewBuilder("fig4", 2)
	g := b.Graph("G", 200*us, 200*us)
	t1 := b.Task(g, "t1", 0, 0, model.SCS)
	t3 := b.Task(g, "t3", 0, 0, model.SCS)
	t2 := b.Task(g, "t2", 1, 0, model.SCS)
	r1 := b.PrioTask(g, "r1", 1, 0, 1)
	r3 := b.PrioTask(g, "r3", 1, 0, 1)
	r2 := b.PrioTask(g, "r2", 0, 0, 1)
	b.Message("m1", model.DYN, 7*us, t1, r1, 10)
	b.Message("m2", model.DYN, 6*us, t2, r2, 5)
	b.Message("m3", model.DYN, 3*us, t3, r3, 1) // lower priority than m1
	return b.MustBuild()
}

// Fig4Config returns the bus configuration of the requested variant.
func Fig4Config(sys *model.System, v Fig4Variant) *flexray.Config {
	cfg := &flexray.Config{
		StaticSlotLen:   8 * us,
		NumStaticSlots:  1,
		StaticSlotOwner: []model.NodeID{0},
		MinislotLen:     us,
		FrameID:         map[model.ActID]int{},
		Policy:          flexray.LatestTxPerFrame,
	}
	m1 := actByName(sys, "m1")
	m2 := actByName(sys, "m2")
	m3 := actByName(sys, "m3")
	switch v {
	case Fig4a:
		cfg.NumMinislots = 12
		cfg.FrameID[m1] = 1
		cfg.FrameID[m2] = 2
		cfg.FrameID[m3] = 1 // Table A: m3 shares m1's FrameID
	case Fig4b:
		cfg.NumMinislots = 12
		cfg.FrameID[m1] = 1
		cfg.FrameID[m2] = 2
		cfg.FrameID[m3] = 3 // Table B
	case Fig4c:
		cfg.NumMinislots = 13
		cfg.FrameID[m1] = 1
		cfg.FrameID[m2] = 2
		cfg.FrameID[m3] = 3
	}
	return cfg
}

// Fig4Row is the outcome of one Fig. 4 variant.
type Fig4Row struct {
	Variant    Fig4Variant
	GdCycle    units.Duration
	R2         units.Duration // the figure's headline number
	R1, R3     units.Duration
	PaperR2    units.Duration
	AnalysedR2 units.Duration
}

// Fig4 regenerates the three scenarios of Fig. 4. The R2 column must
// equal the paper's 37, 35, 21 exactly.
func Fig4() ([]Fig4Row, error) {
	paper := map[Fig4Variant]units.Duration{Fig4a: 37 * us, Fig4b: 35 * us, Fig4c: 21 * us}
	var rows []Fig4Row
	for _, v := range []Fig4Variant{Fig4a, Fig4b, Fig4c} {
		sys := Fig4System()
		cfg := Fig4Config(sys, v)
		if err := cfg.Validate(flexray.DefaultParams(), sys); err != nil {
			return nil, fmt.Errorf("fig4 %v: %w", v, err)
		}
		table, res, err := sched.Build(sys, cfg, sched.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("fig4 %v: %w", v, err)
		}
		opts := sim.DefaultOptions()
		opts.Trace = true
		simulator, err := sim.New(sys, cfg, table, opts)
		if err != nil {
			return nil, err
		}
		sr, err := simulator.Run()
		if err != nil {
			return nil, err
		}
		analysed, _ := res.Response(actByName(sys, "m2"))
		rows = append(rows, Fig4Row{
			Variant:    v,
			GdCycle:    cfg.Cycle(),
			R1:         sr.MaxResponse[actByName(sys, "m1")],
			R2:         sr.MaxResponse[actByName(sys, "m2")],
			R3:         sr.MaxResponse[actByName(sys, "m3")],
			PaperR2:    paper[v],
			AnalysedR2: analysed,
		})
	}
	return rows, nil
}
