// Busexplorer sweeps the dynamic-segment length of a generated system
// and prints an ASCII rendition of the paper's Fig. 7 trade-off: too
// short a bus cycle makes messages wait many cycles; too long a cycle
// makes every wait expensive. The sweet spot lies in between — which is
// exactly what the curve-fitting heuristic exploits.
package main

import (
	"fmt"
	"log"
	"strings"

	flexopt "repro"
)

func main() {
	sys, err := flexopt.Generate(flexopt.DefaultGenParams(4, 2026))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d tasks, %d ST + %d DYN messages on %d nodes, bus utilisation %.2f\n\n",
		len(sys.App.Tasks(-1)), len(sys.App.Messages(0)), len(sys.App.Messages(1)),
		sys.Platform.NumNodes, sys.BusUtilisation())

	fids, err := flexopt.AssignFrameIDs(sys)
	if err != nil {
		log.Fatal(err)
	}

	// Fixed, minimal static segment; the dynamic segment sweeps.
	maxST := sys.App.MaxC(func(a *flexopt.Activity) bool {
		return a.IsMessage() && a.Class == flexopt.ST
	})
	senders := sys.App.STSenderNodes()
	cfg := &flexopt.Config{
		StaticSlotLen:  maxST,
		NumStaticSlots: len(senders),
		MinislotLen:    flexopt.Microsecond,
		FrameID:        fids,
		Policy:         flexopt.LatestTxPerFrame,
	}
	for _, n := range senders {
		cfg.StaticSlotOwner = append(cfg.StaticSlotOwner, n)
	}

	// Track the total cost function (schedulability degree) and the
	// worst DYN response across the sweep.
	type point struct {
		nMS   int
		cost  float64
		worst flexopt.Duration
	}
	var pts []point
	dyn := sys.App.Messages(int(flexopt.DYN))
	for nMS := 1200; nMS <= 12000; nMS += 600 {
		c := cfg.Clone()
		c.NumMinislots = nMS
		_, ana, err := flexopt.BuildSchedule(sys, c, flexopt.DefaultSchedOptions())
		if err != nil {
			log.Fatal(err)
		}
		var worst flexopt.Duration
		for _, m := range dyn {
			if r, _ := ana.Response(m); r > worst {
				worst = r
			}
		}
		pts = append(pts, point{nMS, ana.Cost, worst})
	}

	var maxW flexopt.Duration
	for _, p := range pts {
		if p.worst > maxW {
			maxW = p.worst
		}
	}
	fmt.Printf("%-10s %-12s %-14s %s\n", "DYN (µs)", "worst DYN R", "cost", "profile")
	for _, p := range pts {
		bar := int(60 * float64(p.worst) / float64(maxW))
		fmt.Printf("%-10d %-12v %-14.0f %s\n", p.nMS, p.worst, p.cost, strings.Repeat("#", bar))
	}
	fmt.Println("\nthe U shape above is the foundation of the OBC curve-fitting heuristic (paper §6.2.1)")
}
