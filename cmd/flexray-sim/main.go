// flexray-sim builds the static schedule for a system under a given
// bus configuration, runs the holistic schedulability analysis and the
// discrete-event simulator, and prints observed versus analysed
// response times for every activity.
//
// Usage:
//
//	flexray-sim -system sys.json -config config.json [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/export"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	var (
		sysPath = flag.String("system", "", "system description JSON (required)")
		cfgPath = flag.String("config", "", "bus configuration JSON (required)")
		trace   = flag.Bool("trace", false, "print the first bus cycles' trace")
		gantt   = flag.Bool("gantt", false, "print an ASCII Gantt chart of the static schedule")
		explain = flag.Bool("explain", false, "print the Eq. (3) delay decomposition of every DYN message")
		reps    = flag.Int("repetitions", 1, "hyper-periods of releases to simulate")
	)
	flag.Parse()
	if *sysPath == "" || *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "flexray-sim: -system and -config are required")
		flag.Usage()
		os.Exit(2)
	}

	sf, err := os.Open(*sysPath)
	if err != nil {
		fail(err)
	}
	sys, err := model.ReadJSON(sf)
	sf.Close()
	if err != nil {
		fail(err)
	}
	cf, err := os.Open(*cfgPath)
	if err != nil {
		fail(err)
	}
	cfg, err := flexray.ReadJSON(cf, sys)
	cf.Close()
	if err != nil {
		fail(err)
	}
	if err := cfg.Validate(flexray.DefaultParams(), sys); err != nil {
		fail(fmt.Errorf("invalid configuration: %w", err))
	}

	schedOpts := sched.DefaultOptions()
	table, err := sched.BuildTable(sys, cfg, schedOpts)
	if err != nil {
		fail(err)
	}
	analyzer := analysis.New(sys, cfg, table, schedOpts.Analysis)
	ana := analyzer.Run()
	opts := sim.DefaultOptions()
	opts.Repetitions = *reps
	opts.Trace = *trace
	s, err := sim.New(sys, cfg, table, opts)
	if err != nil {
		fail(err)
	}
	res, err := s.Run()
	if err != nil {
		fail(err)
	}

	fmt.Printf("configuration: %v\n", cfg)
	fmt.Printf("analysis: schedulable=%v cost=%.1f\n\n", ana.Schedulable, ana.Cost)
	fmt.Printf("%-16s %-8s %-12s %-12s %-12s %-6s\n",
		"activity", "kind", "simulated", "analysed", "deadline", "ok")

	ids := make([]model.ActID, 0, len(sys.App.Acts))
	for i := range sys.App.Acts {
		ids = append(ids, sys.App.Acts[i].ID)
	}
	sort.Slice(ids, func(i, j int) bool {
		return sys.App.Acts[ids[i]].Name < sys.App.Acts[ids[j]].Name
	})
	violations := 0
	for _, id := range ids {
		a := sys.App.Act(id)
		simR := res.MaxResponse[id]
		anaR, _ := ana.Response(id)
		d := sys.App.Deadline(id)
		ok := anaR <= d
		if !ok {
			violations++
		}
		kind := a.Policy.String()
		if a.IsMessage() {
			kind = a.Class.String()
		}
		fmt.Printf("%-16s %-8s %-12v %-12v %-12v %-6v\n", a.Name, kind, simR, anaR, d, ok)
	}
	fmt.Printf("\n%d activities, %d analysed deadline violations, %d observed misses, %d unfinished instances\n",
		len(ids), violations, res.DeadlineMisses, res.Unfinished)

	if *explain {
		fmt.Println("\nDYN message delay decomposition (Rm = Jm + σm + BusCycles·gdCycle + w'm + Cm):")
		for _, d := range analyzer.ExplainAll() {
			fmt.Printf("  %-14s FrameID %-3d %s\n",
				sys.App.Act(d.Msg).Name, cfg.FrameID[d.Msg], d)
		}
	}

	if *gantt {
		fmt.Println("\nstatic schedule:")
		if err := export.Gantt(os.Stdout, sys, cfg, table, export.GanttOptions{Width: 110}); err != nil {
			fail(err)
		}
	}

	if *trace {
		fmt.Println("\nbus trace (dynamic segment):")
		for _, e := range res.Trace {
			kind := "DYN"
			if e.Kind == sim.TraceMinislot {
				kind = "MS "
			}
			names := ""
			for _, id := range e.Acts {
				names += sys.App.Act(id).Name + " "
			}
			fmt.Printf("  cycle %-3d slot %-3d [%v, %v) %s %s\n", e.Cycle, e.Slot, e.Start, e.End, kind, names)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "flexray-sim:", err)
	os.Exit(1)
}
