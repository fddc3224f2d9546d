package analysis

import "repro/internal/model"

// GreedyFillForTest fills one environment built from per-group extras
// (each group sorted by extra descending, as buildEnv orders them) and
// budgets with greedyFill, then takes leftoverExtras. It returns the
// filled cycles, the leftover extras and the final budget rows, so the
// external reference test can compare them with the per-cycle fill.
func GreedyFillForTest(need int, extras [][]int, budgets [][]int64) (int64, int, [][]int64) {
	groups := make([][]lfItem, len(extras))
	for g, row := range extras {
		for i, e := range row {
			groups[g] = append(groups[g], lfItem{fid: g + 1, id: model.ActID(g*10 + i), extra: e})
		}
	}
	ar, env := testArena(need, groups, budgets)
	filled := ar.greedyFill(env)
	leftover := ar.leftoverExtras(env)
	out := make([][]int64, len(budgets))
	start := 0
	for g := range budgets {
		out[g] = append([]int64(nil), ar.budget[start:start+len(budgets[g])]...)
		start += len(budgets[g])
	}
	return filled, leftover, out
}
