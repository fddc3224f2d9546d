// Quickstart: build a three-node system with mixed time-triggered and
// event-triggered traffic, optimise its FlexRay bus configuration with
// the curve-fitting OBC heuristic, and print the result.
package main

import (
	"fmt"
	"log"

	flexopt "repro"
)

func main() {
	// A small brake-by-wire-flavoured application: a 10 ms
	// time-triggered control loop and a 20 ms event-triggered
	// diagnosis chain over three ECUs.
	b := flexopt.NewBuilder("quickstart", 3)
	b.NodeNames("Sensor", "Controller", "Actuator")

	ctl := b.Graph("control", 10*flexopt.Millisecond, 8*flexopt.Millisecond)
	acquire := b.Task(ctl, "acquire", 0, 400*flexopt.Microsecond, flexopt.SCS)
	filter := b.Task(ctl, "filter", 0, 300*flexopt.Microsecond, flexopt.SCS)
	control := b.Task(ctl, "control", 1, 900*flexopt.Microsecond, flexopt.SCS)
	actuate := b.Task(ctl, "actuate", 2, 350*flexopt.Microsecond, flexopt.SCS)
	b.Edge(acquire, filter)
	b.Message("m_meas", flexopt.ST, 120*flexopt.Microsecond, filter, control, 0)
	b.Message("m_cmd", flexopt.ST, 90*flexopt.Microsecond, control, actuate, 0)

	diag := b.Graph("diagnosis", 20*flexopt.Millisecond, 20*flexopt.Millisecond)
	probe := b.PrioTask(diag, "probe", 2, 500*flexopt.Microsecond, 3)
	classify := b.PrioTask(diag, "classify", 1, 700*flexopt.Microsecond, 2)
	report := b.PrioTask(diag, "report", 0, 250*flexopt.Microsecond, 1)
	b.Message("m_probe", flexopt.DYN, 200*flexopt.Microsecond, probe, classify, 5)
	b.Message("m_report", flexopt.DYN, 150*flexopt.Microsecond, classify, report, 4)

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Optimise the bus access configuration (slot sizes and counts,
	// dynamic segment length, FrameIDs).
	res, err := flexopt.OBCCF(sys, flexopt.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedulable: %v (cost %.1f) after %d evaluations in %v\n",
		res.Schedulable, res.Cost, res.Evaluations, res.Elapsed)
	fmt.Println("configuration:", res.Config)

	// Inspect the worst-case response times the analysis guarantees.
	fmt.Printf("\n%-10s %-12s %-12s\n", "activity", "WCRT", "deadline")
	for i := range sys.App.Acts {
		a := &sys.App.Acts[i]
		r, _ := res.Analysis.Response(a.ID)
		fmt.Printf("%-10s %-12v %-12v\n", a.Name, r, sys.App.Deadline(a.ID))
	}

	// Cross-check with the discrete-event simulator: observed
	// responses must stay below the analysed bounds.
	table, _, err := flexopt.BuildSchedule(sys, res.Config, flexopt.DefaultSchedOptions())
	if err != nil {
		log.Fatal(err)
	}
	simRes, err := flexopt.Simulate(sys, res.Config, table, flexopt.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated responses (1 hyper-period): %d observed deadline misses\n", simRes.DeadlineMisses)
	for i := range sys.App.Acts {
		a := &sys.App.Acts[i]
		r, _ := res.Analysis.Response(a.ID)
		fmt.Printf("%-10s simulated %-12v analysed %-12v\n",
			a.Name, simRes.MaxResponse[a.ID], r)
	}
}
