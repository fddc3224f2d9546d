// Package synth generates random applications with the population
// parameters of the paper's experimental evaluation (Section 7): 2-7
// nodes with 10 tasks mapped on each, task graphs of 5 tasks, half of
// the graphs time-triggered and half event-triggered, node utilisations
// drawn from 30-60% and bus utilisations from 10-70%. Generation is
// fully deterministic in the seed.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/units"
)

// Params describe one generated system.
type Params struct {
	// Nodes is the number of processing nodes (the paper evaluates
	// 2-7).
	Nodes int
	// TasksPerNode is the number of tasks mapped on each node (the
	// paper used 10).
	TasksPerNode int
	// GraphSize is the number of tasks per task graph (the paper
	// used 5).
	GraphSize int
	// TTShare is the fraction of task graphs that are
	// time-triggered (the paper used one half).
	TTShare float64
	// NodeUtilMin/Max bound the per-node CPU utilisation (30-60%).
	NodeUtilMin, NodeUtilMax float64
	// BusUtilMin/Max bound the bus utilisation (10-70%).
	BusUtilMin, BusUtilMax float64
	// DeadlineFactor scales graph deadlines relative to the period
	// (default 1.0).
	DeadlineFactor float64
	// Seed drives all random choices.
	Seed int64
}

// periodMenu is the period menu graphs draw from; it keeps the
// hyper-period at 40 ms.
var periodMenu = []units.Duration{10 * units.Millisecond, 20 * units.Millisecond, 40 * units.Millisecond}

// DefaultParams returns the Section 7 population with the given node
// count and seed.
func DefaultParams(nodes int, seed int64) Params {
	return Params{
		Nodes:          nodes,
		TasksPerNode:   10,
		GraphSize:      5,
		TTShare:        0.5,
		NodeUtilMin:    0.30,
		NodeUtilMax:    0.60,
		BusUtilMin:     0.10,
		BusUtilMax:     0.70,
		DeadlineFactor: 1.0,
		Seed:           seed,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams(p.Nodes, p.Seed)
	if p.TasksPerNode <= 0 {
		p.TasksPerNode = d.TasksPerNode
	}
	if p.GraphSize <= 0 {
		p.GraphSize = d.GraphSize
	}
	if p.TTShare <= 0 {
		p.TTShare = d.TTShare
	}
	if p.NodeUtilMax <= 0 {
		p.NodeUtilMin, p.NodeUtilMax = d.NodeUtilMin, d.NodeUtilMax
	}
	if p.BusUtilMax <= 0 {
		p.BusUtilMin, p.BusUtilMax = d.BusUtilMin, d.BusUtilMax
	}
	if p.DeadlineFactor <= 0 {
		p.DeadlineFactor = d.DeadlineFactor
	}
	return p
}

// Generate builds one random system.
func Generate(p Params) (*model.System, error) {
	p = p.withDefaults()
	if p.Nodes < 2 {
		return nil, fmt.Errorf("synth: need at least 2 nodes, got %d", p.Nodes)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	numTasks := p.Nodes * p.TasksPerNode
	numGraphs := numTasks / p.GraphSize
	if numGraphs == 0 {
		return nil, fmt.Errorf("synth: %d tasks cannot form graphs of %d", numTasks, p.GraphSize)
	}

	// Node assignment: a random permutation sliced into equal chunks
	// keeps exactly TasksPerNode tasks on each node.
	nodeOf := make([]model.NodeID, numTasks)
	perm := rng.Perm(numTasks)
	for i, t := range perm {
		nodeOf[t] = model.NodeID(i / p.TasksPerNode)
	}

	b := model.NewBuilder(fmt.Sprintf("synth-n%d-s%d", p.Nodes, p.Seed), p.Nodes)

	ttGraphs := int(float64(numGraphs)*p.TTShare + 0.5)
	type edge struct{ from, to int }
	var (
		taskIDs  = make([]model.ActID, numTasks)
		rawC     = make([]float64, numTasks)
		graphOf  = make([]int, numTasks)
		periods  = make([]units.Duration, numGraphs)
		isTT     = make([]bool, numGraphs)
		allEdges []edge
	)

	for g := 0; g < numGraphs; g++ {
		// Graph indices carry no structure (task-to-node mapping is
		// a random permutation), so the first ttGraphs graphs being
		// TT realises the share exactly.
		isTT[g] = g < ttGraphs
		periods[g] = periodMenu[rng.Intn(len(periodMenu))]
		kind := "et"
		if isTT[g] {
			kind = "tt"
		}
		gi := b.Graph(fmt.Sprintf("G%d-%s", g, kind), periods[g],
			units.Duration(float64(periods[g])*p.DeadlineFactor))

		base := g * p.GraphSize
		for j := 0; j < p.GraphSize; j++ {
			t := base + j
			graphOf[t] = g
			pol := model.FPS
			if isTT[g] {
				pol = model.SCS
			}
			rawC[t] = 1 + rng.Float64()
			taskIDs[t] = b.Task(gi, fmt.Sprintf("t%d", t), nodeOf[t], units.Microsecond, pol)
		}
		// Random DAG: every non-root picks one or two predecessors
		// among the earlier tasks of the graph.
		for j := 1; j < p.GraphSize; j++ {
			k := 1
			if j > 1 && rng.Intn(2) == 0 {
				k = 2
			}
			seen := map[int]bool{}
			for e := 0; e < k; e++ {
				pr := rng.Intn(j)
				if seen[pr] {
					continue
				}
				seen[pr] = true
				allEdges = append(allEdges, edge{base + pr, base + j})
			}
		}
	}

	// Scale WCETs so each node hits its drawn utilisation target.
	targetU := make([]float64, p.Nodes)
	for n := range targetU {
		targetU[n] = p.NodeUtilMin + rng.Float64()*(p.NodeUtilMax-p.NodeUtilMin)
	}
	nodeLoad := make([]float64, p.Nodes) // sum raw/T
	for t := 0; t < numTasks; t++ {
		nodeLoad[nodeOf[t]] += rawC[t] / float64(periods[graphOf[t]])
	}
	// The WCET of task t becomes raw_t * f_n with the per-node
	// scaling factor f_n = targetU_n / nodeLoad_n.
	for t := 0; t < numTasks; t++ {
		n := nodeOf[t]
		f := targetU[n] / nodeLoad[n]
		c := units.Duration(rawC[t] * f)
		if c < 10*units.Microsecond {
			c = 10 * units.Microsecond
		}
		b.SetWCET(taskIDs[t], c)
	}

	// Messages: every cross-node edge becomes one; same-node edges
	// stay plain precedence. Sizes are scaled to the drawn bus
	// utilisation.
	type msgEdge struct {
		edge
		raw float64
	}
	var msgs []msgEdge
	var busLoad float64
	for _, e := range allEdges {
		if nodeOf[e.from] == nodeOf[e.to] {
			b.Edge(taskIDs[e.from], taskIDs[e.to])
			continue
		}
		raw := 0.5 + rng.Float64()
		msgs = append(msgs, msgEdge{e, raw})
		busLoad += raw / float64(periods[graphOf[e.from]])
	}
	targetBus := p.BusUtilMin + rng.Float64()*(p.BusUtilMax-p.BusUtilMin)
	for i, me := range msgs {
		g := graphOf[me.from]
		var f float64
		if busLoad > 0 {
			f = targetBus / busLoad
		}
		c := units.Duration(me.raw * f)
		if c < 5*units.Microsecond {
			c = 5 * units.Microsecond
		}
		// A frame must fit a static slot (at most 661 macroticks)
		// and stay within FlexRay's physical payload limits; the
		// clamp keeps every generated system protocol-realisable at
		// the cost of slightly undershooting extreme bus-utilisation
		// draws.
		if c > 600*units.Microsecond {
			c = 600 * units.Microsecond
		}
		class := model.DYN
		if isTT[g] {
			class = model.ST
		}
		b.Message(fmt.Sprintf("m%d", i), class, c,
			taskIDs[me.from], taskIDs[me.to], rng.Intn(1000))
	}

	// Fixed-priority tasks get rate-monotonic-ish unique priorities
	// per node (shorter period = higher priority; random tie-break).
	assignPriorities(b, rng, taskIDs, nodeOf, graphOf, periods, isTT, p.Nodes)

	return b.Build()
}

// assignPriorities gives every FPS task a unique priority on its node,
// ordered by period (rate monotonic) with random tie-breaking.
func assignPriorities(b *model.Builder, rng *rand.Rand, taskIDs []model.ActID,
	nodeOf []model.NodeID, graphOf []int, periods []units.Duration, isTT []bool, nodes int) {

	type cand struct {
		id     model.ActID
		period units.Duration
		tie    float64
	}
	perNode := make([][]cand, nodes)
	for t, id := range taskIDs {
		if isTT[graphOf[t]] {
			continue
		}
		perNode[nodeOf[t]] = append(perNode[nodeOf[t]], cand{id, periods[graphOf[t]], rng.Float64()})
	}
	for _, cs := range perNode {
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0; j-- {
				a, bb := cs[j], cs[j-1]
				if a.period < bb.period || (a.period == bb.period && a.tie < bb.tie) {
					cs[j], cs[j-1] = cs[j-1], cs[j]
				} else {
					break
				}
			}
		}
		for rank, c := range cs {
			b.SetPriority(c.id, len(cs)-rank)
		}
	}
}
