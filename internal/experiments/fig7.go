package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/units"
)

// Fig7Params parameterise the DYN-segment-length characterisation. The
// paper used a system of 45 tasks communicating through 10 static and
// 20 dynamic messages, a fixed static segment of 1286 µs, and swept the
// dynamic segment from 2285.4 µs to 13000 µs.
type Fig7Params struct {
	Seed      int64
	Points    int // sweep resolution (the paper plots ~21 points)
	Messages  int // how many DYN messages to report (the paper plots a handful)
	STBusUs   float64
	DYNMinUs  float64
	DYNMaxUs  float64
	ExactFill bool
	// Workers evaluates the sweep points concurrently through the
	// campaign engine; <= 0 selects GOMAXPROCS. The points are
	// independent, so the series is identical at any worker count.
	Workers int
}

// DefaultFig7Params mirror the paper's setup.
func DefaultFig7Params() Fig7Params {
	return Fig7Params{
		Seed:     42,
		Points:   21,
		Messages: 6,
		STBusUs:  1286,
		DYNMinUs: 2285.4,
		DYNMaxUs: 13000,
	}
}

// Fig7Point is one x-position of the sweep.
type Fig7Point struct {
	DYNBus   units.Duration
	GdCycle  units.Duration
	R        []units.Duration // per reported message
	CostSign float64
}

// Fig7Series is the regenerated figure: response time of selected DYN
// messages versus dynamic segment length.
type Fig7Series struct {
	MessageNames []string
	Points       []Fig7Point
}

// Fig7System builds the 45-task / 10 ST / 20 DYN system. The generator
// population does not naturally produce exactly these counts, so the
// builder assembles it directly: 9 graphs of 5 tasks over 5 nodes,
// tuned to Section 7 utilisation bands.
func Fig7System(seed int64) (*model.System, error) {
	p := synth.DefaultParams(5, seed)
	p.TasksPerNode = 9 // 45 tasks
	p.TTShare = 0.34   // 3 of 9 graphs TT
	p.BusUtilMin, p.BusUtilMax = 0.30, 0.45
	return synth.Generate(p)
}

// Fig7 sweeps the dynamic segment length and records the worst-case
// response times of the largest DYN messages, reproducing the U-shaped
// trade-off of Fig. 7: short cycles inflate BusCyclesm, long cycles
// inflate every miss penalty.
func Fig7(p Fig7Params) (*Fig7Series, error) {
	if p.Points <= 1 {
		p.Points = 21
	}
	sys, err := Fig7System(p.Seed)
	if err != nil {
		return nil, err
	}

	fids, err := core.AssignFrameIDs(sys)
	if err != nil {
		return nil, err
	}

	// Static segment fixed: size the slots to the ST minimum and pad
	// the slot count to reach the requested STbus.
	slotLen := sys.App.MaxC(func(a *model.Activity) bool {
		return a.IsMessage() && a.Class == model.ST
	})
	if slotLen == 0 {
		return nil, fmt.Errorf("fig7: system has no ST messages")
	}
	stBus := units.Microseconds(p.STBusUs)
	// As many slots as fit the requested STbus while each still holds
	// the largest ST frame; the slot length absorbs the remainder so
	// the static segment hits the requested size exactly.
	numSlots := int(int64(stBus) / int64(slotLen))
	if min := len(sys.App.STSenderNodes()); numSlots < min {
		numSlots = min
	}
	slotLen = units.Duration(int64(stBus) / int64(numSlots))
	if slotLen < sys.App.MaxC(func(a *model.Activity) bool {
		return a.IsMessage() && a.Class == model.ST
	}) {
		slotLen = sys.App.MaxC(func(a *model.Activity) bool {
			return a.IsMessage() && a.Class == model.ST
		})
	}

	cfg := &flexray.Config{
		StaticSlotLen:  slotLen,
		NumStaticSlots: numSlots,
		MinislotLen:    units.Microsecond,
		FrameID:        fids,
		Policy:         flexray.LatestTxPerFrame,
	}
	senders := sys.App.STSenderNodes()
	owners := make([]model.NodeID, numSlots)
	for i := range owners {
		owners[i] = senders[i%len(senders)]
	}
	cfg.StaticSlotOwner = owners

	// Report the largest DYN messages: they show the trade-off most
	// clearly (their BusCycles term dominates).
	dyn := sys.App.Messages(int(model.DYN))
	if len(dyn) == 0 {
		return nil, fmt.Errorf("fig7: system has no DYN messages")
	}
	for i := 0; i < len(dyn); i++ {
		for j := i + 1; j < len(dyn); j++ {
			if sys.App.Act(dyn[j]).C > sys.App.Act(dyn[i]).C {
				dyn[i], dyn[j] = dyn[j], dyn[i]
			}
		}
	}
	if p.Messages > 0 && len(dyn) > p.Messages {
		dyn = dyn[:p.Messages]
	}
	series := &Fig7Series{}
	for _, m := range dyn {
		series.MessageNames = append(series.MessageNames, sys.App.Act(m).Name)
	}

	opts := sched.DefaultOptions()
	opts.Analysis.ExactFill = p.ExactFill
	minMS := int(units.CeilDiv(int64(units.Microseconds(p.DYNMinUs)), int64(cfg.MinislotLen)))
	maxMS := int(int64(units.Microseconds(p.DYNMaxUs)) / int64(cfg.MinislotLen))
	// The sweep points are independent, so they are built up front and
	// fanned across the campaign engine's worker pool; the series is
	// assembled in sweep order afterwards.
	cands := make([]*flexray.Config, p.Points)
	for i := 0; i < p.Points; i++ {
		// Geometric spacing, matching the paper's x-axis (2285,
		// 2418, ..., 11214, 13000).
		frac := float64(i) / float64(p.Points-1)
		nMS := int(float64(minMS)*math.Pow(float64(maxMS)/float64(minMS), frac) + 0.5)
		cands[i] = cfg.Clone()
		cands[i].NumMinislots = nMS
	}
	engine := campaign.NewEngine(context.Background(), campaign.EngineOptions{Workers: p.Workers})
	ress, _ := engine.EvalBatch(sys, cands, opts)
	for i, res := range ress {
		if res == nil {
			// The engine folds build failures into an infeasible
			// marker; rebuild the one failing point serially to
			// recover the underlying error for the caller.
			if _, err := sched.BuildTable(sys, cands[i], opts); err != nil {
				return nil, fmt.Errorf("fig7 at %d minislots: %w", cands[i].NumMinislots, err)
			}
			return nil, fmt.Errorf("fig7 at %d minislots: schedule construction failed",
				cands[i].NumMinislots)
		}
		pt := Fig7Point{DYNBus: cands[i].DYNBus(), GdCycle: cands[i].Cycle(), CostSign: res.Cost}
		for _, m := range dyn {
			pt.R = append(pt.R, res.R[m])
		}
		series.Points = append(series.Points, pt)
	}
	return series, nil
}
