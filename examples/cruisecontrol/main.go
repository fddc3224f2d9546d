// Cruisecontrol runs the paper's real-life case study end to end: the
// 54-task / 26-message vehicle cruise controller over five ECUs. It
// compares all four optimisers and simulates the best configuration,
// reproducing the Section 7 narrative (BBC fails; the OBC variants
// succeed, curve fitting with a fraction of the exhaustive effort).
package main

import (
	"fmt"
	"log"

	flexopt "repro"
)

func main() {
	sys, err := flexopt.CruiseController()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %s — %d tasks, %d messages, %d graphs, %d nodes\n",
		sys.Name, len(sys.App.Tasks(-1)), len(sys.App.Messages(-1)),
		len(sys.App.Graphs), sys.Platform.NumNodes)
	for n, u := range sys.NodeUtilisation() {
		fmt.Printf("  %-14s utilisation %.2f\n", sys.Platform.NodeName(flexopt.NodeID(n)), u)
	}
	fmt.Printf("  bus utilisation %.2f\n\n", sys.BusUtilisation())

	opts := flexopt.DefaultOptions()
	type run struct {
		name string
		f    func(*flexopt.System, flexopt.Options) (*flexopt.Result, error)
	}
	var best *flexopt.Result
	fmt.Printf("%-8s %-12s %-14s %-8s %-10s\n", "algo", "schedulable", "cost", "evals", "time")
	for _, r := range []run{{"BBC", flexopt.BBC}, {"OBC-CF", flexopt.OBCCF}, {"OBC-EE", flexopt.OBCEE}} {
		res, err := r.f(sys, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-12v %-14.1f %-8d %-10v\n",
			r.name, res.Schedulable, res.Cost, res.Evaluations, res.Elapsed.Round(1000))
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}

	fmt.Println("\nbest configuration:", best.Config)
	fmt.Println("\nstatic slot ownership:")
	for i, owner := range best.Config.StaticSlotOwner {
		fmt.Printf("  slot %d -> %s\n", i+1, sys.Platform.NodeName(owner))
	}

	// Validate by simulation.
	table, ana, err := flexopt.BuildSchedule(sys, best.Config, flexopt.DefaultSchedOptions())
	if err != nil {
		log.Fatal(err)
	}
	simRes, err := flexopt.Simulate(sys, best.Config, table, flexopt.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulation: %d observed deadline misses (analysis: schedulable=%v)\n",
		simRes.DeadlineMisses, ana.Schedulable)

	// The tightest activities, by analysed slack.
	fmt.Println("\ntightest activities (analysed):")
	type slackRow struct {
		name  string
		slack flexopt.Duration
	}
	var rows []slackRow
	for i := range sys.App.Acts {
		a := &sys.App.Acts[i]
		r, _ := ana.Response(a.ID)
		rows = append(rows, slackRow{a.Name, sys.App.Deadline(a.ID) - r})
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].slack < rows[i].slack {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	for _, r := range rows[:5] {
		fmt.Printf("  %-16s slack %v\n", r.name, r.slack)
	}
}
