package experiments

import (
	"fmt"
	"strings"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Fig1System rebuilds the protocol-mechanics example of Fig. 1: three
// nodes exchanging eight messages over a bus with three static slots
// (N2, N1, N2) and five dynamic slots (N3, N2, N1, N2, N3). ST
// messages ma, mb, mc follow the schedule table (mb is the "2/2" entry:
// second slot of the second cycle); DYN messages md..mh illustrate
// FrameID sharing (mg and mf share FrameID 4) and the pLatestTx effect
// (mh misses the first cycle).
func Fig1System() *model.System {
	b := model.NewBuilder("fig1", 3)
	b.NodeNames("N1", "N2", "N3")
	g := b.Graph("G", 400*us, 400*us)
	// Zero-WCET producers make every message ready before the first
	// bus cycle, as the example assumes.
	mk := func(name string, node model.NodeID) model.ActID {
		return b.Task(g, name, node, 0, model.SCS)
	}
	rcv := func(name string, node model.NodeID) model.ActID {
		return b.PrioTask(g, name, node, 0, 1)
	}
	// Senders: N1 sends mb (ST) and mg,mh (DYN slot 3... here N1 has
	// DYN slot 3); N2 sends ma, mc (ST) and me (DYN 2), mf (DYN 4),
	// mg shares 4 — the paper puts mg and mf on the same node (same
	// FrameID requires one node); N3 sends md (DYN 1) and mh (DYN 5).
	tma := mk("t_ma", 1)
	tmb := mk("t_mb", 0)
	tmc := mk("t_mc", 1)
	tmd := mk("t_md", 2)
	tme := mk("t_me", 1)
	tmf := mk("t_mf", 1)
	tmg := mk("t_mg", 1)
	tmh := mk("t_mh", 2)

	b.Message("ma", model.ST, 8*us, tma, rcv("r_ma", 0), 0)
	b.Message("mb", model.ST, 8*us, tmb, rcv("r_mb", 1), 0)
	b.Message("mc", model.ST, 8*us, tmc, rcv("r_mc", 0), 0)
	b.Message("md", model.DYN, 2*us, tmd, rcv("r_md", 0), 1)
	b.Message("me", model.DYN, 3*us, tme, rcv("r_me", 0), 1)
	b.Message("mf", model.DYN, 3*us, tmf, rcv("r_mf", 0), 5)
	b.Message("mg", model.DYN, 3*us, tmg, rcv("r_mg", 0), 1)
	b.Message("mh", model.DYN, 4*us, tmh, rcv("r_mh", 0), 1)
	return b.MustBuild()
}

// Fig1Config is the bus configuration drawn in Fig. 1.
func Fig1Config(sys *model.System) *flexray.Config {
	cfg := &flexray.Config{
		StaticSlotLen:  8 * us,
		NumStaticSlots: 3,
		// Slot 1 and 3 belong to N2, slot 2 to N1 (Fig. 1a).
		StaticSlotOwner: []model.NodeID{1, 0, 1},
		MinislotLen:     us,
		NumMinislots:    12,
		FrameID:         map[model.ActID]int{},
		Policy:          flexray.LatestTxPerFrame,
	}
	cfg.FrameID[actByName(sys, "md")] = 1
	cfg.FrameID[actByName(sys, "me")] = 2
	cfg.FrameID[actByName(sys, "mg")] = 4
	cfg.FrameID[actByName(sys, "mf")] = 4
	cfg.FrameID[actByName(sys, "mh")] = 5
	return cfg
}

// Fig1Trace simulates two bus cycles of the Fig. 1 example and returns
// a printable trace.
func Fig1Trace() (string, []sim.TraceEvent, error) {
	sys := Fig1System()
	cfg := Fig1Config(sys)
	if err := cfg.Validate(flexray.DefaultParams(), sys); err != nil {
		return "", nil, err
	}
	table, err := sched.BuildTable(sys, cfg, sched.DefaultOptions())
	if err != nil {
		return "", nil, err
	}
	opts := sim.DefaultOptions()
	opts.Trace = true
	s, err := sim.New(sys, cfg, table, opts)
	if err != nil {
		return "", nil, err
	}
	res, err := s.Run()
	if err != nil {
		return "", nil, err
	}

	var sb strings.Builder
	name := func(ids []model.ActID) string {
		if len(ids) == 0 {
			return "--"
		}
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = sys.App.Act(id).Name
		}
		return strings.Join(parts, "+")
	}
	fmt.Fprintf(&sb, "%-6s %-5s %-4s %-10s %-10s %s\n", "kind", "cycle", "slot", "start", "end", "payload")
	for _, e := range s.STTrace(2) {
		fmt.Fprintf(&sb, "%-6s %-5d %-4d %-10v %-10v %s\n", "ST", e.Cycle, e.Slot, e.Start, e.End, name(e.Acts))
	}
	for _, e := range res.Trace {
		if e.Cycle > 1 {
			break
		}
		kind := "DYN"
		if e.Kind == sim.TraceMinislot {
			kind = "MS"
		}
		fmt.Fprintf(&sb, "%-6s %-5d %-4d %-10v %-10v %s\n", kind, e.Cycle, e.Slot, e.Start, e.End, name(e.Acts))
	}
	return sb.String(), res.Trace, nil
}
