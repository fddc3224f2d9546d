// Package export renders systems, schedules and experiment series in
// interchange formats: Graphviz DOT for task graphs, an ASCII Gantt
// chart for static schedules plus bus cycles, and CSV for experiment
// series. Everything is plain text so the tools stay dependency-free.
package export

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

// DOT writes the application's task graphs as a Graphviz digraph:
// tasks as boxes (SCS) or ellipses (FPS), messages as diamonds, one
// subgraph cluster per task graph, nodes coloured by processing node.
func DOT(w io.Writer, sys *model.System) error {
	var b strings.Builder
	b.WriteString("digraph application {\n")
	b.WriteString("  rankdir=TB;\n  node [fontsize=10];\n")
	palette := []string{"lightblue", "palegreen", "lightsalmon", "plum", "khaki", "lightcyan", "mistyrose"}
	for g := range sys.App.Graphs {
		tg := &sys.App.Graphs[g]
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n", g)
		fmt.Fprintf(&b, "    label=%q;\n", fmt.Sprintf("%s (T=%v, D=%v)", tg.Name, tg.Period, tg.Deadline))
		for _, id := range tg.Acts {
			a := sys.App.Act(id)
			color := palette[int(a.Node)%len(palette)]
			switch {
			case a.IsMessage():
				fmt.Fprintf(&b, "    %q [shape=diamond,style=filled,fillcolor=%s,label=%q];\n",
					a.Name, color, fmt.Sprintf("%s\\n%s %v", a.Name, a.Class, a.C))
			case a.Policy == model.SCS:
				fmt.Fprintf(&b, "    %q [shape=box,style=filled,fillcolor=%s,label=%q];\n",
					a.Name, color, fmt.Sprintf("%s\\n%s@%s %v", a.Name, a.Policy, sys.Platform.NodeName(a.Node), a.C))
			default:
				fmt.Fprintf(&b, "    %q [shape=ellipse,style=filled,fillcolor=%s,label=%q];\n",
					a.Name, color, fmt.Sprintf("%s\\n%s@%s %v", a.Name, a.Policy, sys.Platform.NodeName(a.Node), a.C))
			}
		}
		b.WriteString("  }\n")
	}
	for i := range sys.App.Acts {
		a := &sys.App.Acts[i]
		for _, s := range a.Succs {
			fmt.Fprintf(&b, "  %q -> %q;\n", a.Name, sys.App.Acts[s].Name)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// GanttOptions tune the ASCII chart.
type GanttOptions struct {
	// Width is the number of character columns representing the
	// table's horizon (default 100).
	Width int
}

// Gantt renders the static schedule and the bus-cycle structure as an
// ASCII chart: one row per node showing SCS reservations, one row for
// the bus showing ST slots (with owners) and the DYN segment.
func Gantt(w io.Writer, sys *model.System, cfg *flexray.Config, table *schedule.Table, opts GanttOptions) error {
	width := opts.Width
	if width <= 0 {
		width = 100
	}
	horizon := table.Horizon
	if horizon <= 0 {
		return fmt.Errorf("export: no horizon to render")
	}
	col := func(t units.Time) int {
		c := int(int64(t) * int64(width) / int64(horizon))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "horizon %v, one column = %v\n", horizon, horizon/units.Duration(width))

	// Node rows: SCS reservations labelled by task initial.
	taskAt := map[int]rune{}
	for _, e := range table.Tasks {
		name := sys.App.Act(e.Act).Name
		taskAt[int(e.Act)] = rune(name[len(name)-1])
	}
	for n := 0; n < sys.Platform.NumNodes; n++ {
		row := make([]rune, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range table.Tasks {
			if e.Node != model.NodeID(n) || units.Duration(e.Start) >= horizon {
				continue
			}
			from, to := col(e.Start), col(e.End)
			if to <= from {
				to = from + 1
			}
			for i := from; i < to && i < width; i++ {
				row[i] = '#'
			}
			if from < width {
				row[from] = taskAt[int(e.Act)]
			}
		}
		fmt.Fprintf(&b, "%-14s|%s|\n", sys.Platform.NodeName(model.NodeID(n)), string(row))
	}

	// Bus row: S for static slots, d for the dynamic segment.
	row := make([]rune, width)
	for i := range row {
		row[i] = ' '
	}
	if cy := cfg.Cycle(); cy > 0 {
		for cycle := int64(0); units.Duration(cfg.CycleStart(cycle)) < horizon; cycle++ {
			for slot := 1; slot <= cfg.NumStaticSlots; slot++ {
				from, to := col(cfg.StaticSlotStart(cycle, slot)), col(cfg.StaticSlotEnd(cycle, slot))
				for i := from; i <= to && i < width; i++ {
					row[i] = 'S'
				}
			}
			from, to := col(cfg.DYNStart(cycle)), col(cfg.CycleStart(cycle+1))
			for i := from; i < to && i < width; i++ {
				if row[i] == ' ' {
					row[i] = 'd'
				}
			}
		}
	}
	fmt.Fprintf(&b, "%-14s|%s|\n", "bus (S=ST,d=DYN)", string(row))

	// ST message placements.
	msgs := append([]schedule.MsgEntry(nil), table.Msgs...)
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].TxStart < msgs[j].TxStart })
	for _, e := range msgs {
		if units.Duration(e.TxStart) >= horizon {
			continue
		}
		fmt.Fprintf(&b, "  %-12s cycle %-3d slot %-2d tx %-10v delivered %v\n",
			sys.App.Act(e.Act).Name, e.Cycle, e.Slot, e.TxStart, e.Delivery)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SeriesCSV writes an experiment series (x plus named columns) as CSV.
func SeriesCSV(w io.Writer, xName string, cols []string, rows [][]float64) error {
	var b strings.Builder
	b.WriteString(xName)
	for _, c := range cols {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
