package analysis

import (
	"sort"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

// dynResponse computes the worst-case response time of a DYN message
// per Section 5.1:
//
//	Rm = Jm + wm + Cm                                   (Eq. 2)
//	wm = σm + BusCyclesm(t)·gdCycle + w'm(t)            (Eq. 3)
//
// σm is the longest in-cycle delay when the message becomes ready just
// after its slot has passed; BusCyclesm counts the "filled" bus cycles
// in which transmission is impossible (higher-priority local messages
// occupying the slot, or lower-FrameID interference pushing the
// minislot counter past the latest transmission start); w'm is the
// delay inside the final cycle until transmission starts. The window
// wm depends on the jitters of hp(m) and lf(m) but not on Jm, so it is
// cached for the Run until one of theirs changes.
func (a *Analyzer) dynResponse(act *model.Activity, jitter units.Duration) units.Duration {
	id := act.ID
	if !a.dynWindowValid(id) {
		d := a.dynWindow(act)
		a.win[id] = units.SatAdd(d.w, act.C)
		a.winSat[id] = d.sat
		a.winStamp[id] = a.nextStep()
	}
	if a.winSat[id] {
		return a.capD[id]
	}
	return units.SatAdd(jitter, a.win[id])
}

// dynWindowValid is windowValid over the interferers of a DYN message:
// its hp(m) ids and its lf(m) items. A window computed without an
// environment (the message is never transmitted) has none.
func (a *Analyzer) dynWindowValid(id model.ActID) bool {
	env := &a.ar.envs[a.dynIdx[id]]
	if !env.built {
		return a.winStamp[id] != 0
	}
	if !a.windowValid(id, a.ar.hp[env.hpLo:env.hpHi]) {
		return false
	}
	at := a.winStamp[id]
	for _, it := range a.ar.lf[env.lfLo:env.lfHi] {
		if a.jStamp[it.id] > at {
			return false
		}
	}
	return true
}

// dynTerms are the jitter-free Eq. (3) terms of one DYN message, taken
// from the last iterate of the fixpoint: w = sigma + filled·cycle +
// wPrime.
type dynTerms struct {
	sigma, cycle, wPrime, w units.Duration
	filled                  int64
	// sat reports a message that is never transmitted (no FrameID, no
	// dynamic segment, or a frame that never fits) or whose window
	// passed the divergence cap: its response is the cap itself, with
	// neither jitter nor C added.
	sat bool
	// capped reports that the fixpoint stopped at its iteration cap;
	// the response is then built from the last iterate.
	capped bool
}

// dynWindow runs the Eq. (3) fixpoint of one DYN message with the
// current jitters of its interferers. It is the one copy of the loop:
// Run caches its result, ExplainDYN reports its terms.
func (a *Analyzer) dynWindow(act *model.Activity) dynTerms {
	di := a.dynIdx[act.ID]
	fid := a.fids[di]
	if fid < 0 || a.cfg.NumMinislots <= 0 {
		// No FrameID or no dynamic segment: the message can never
		// be transmitted under this configuration.
		return dynTerms{sat: true}
	}
	need := a.fillNeed(act, fid, int(di))
	if need <= 0 {
		// Even an empty dynamic segment blocks the frame (it can
		// never fit): permanently filled.
		return dynTerms{sat: true}
	}

	env := &a.ar.envs[di]
	if !env.built {
		a.buildEnv(int(di), act, fid)
	}
	// The need depends on NumMinislots (and, per-node, on pLatestTx),
	// which change between Reset-bound configurations while the cached
	// environment stays valid; refresh it on every query.
	env.need = need
	bound := a.capD[act.ID]
	cycle := a.cfg.Cycle()
	msLen := a.cfg.MinislotLen
	stBus := a.cfg.STBus()

	// σm: the message misses its earliest possible slot start in the
	// arrival cycle and waits for the cycle to end. The earliest slot
	// start is STbus + (fid-1) empty minislots into the cycle.
	d := dynTerms{sigma: cycle - stBus - units.Duration(fid-1)*msLen, cycle: cycle}

	// Fixpoint of Eq. (3): t is the window over which interfering
	// instances are counted.
	t := units.Duration(0)
	for iter := 0; iter < 10000; iter++ {
		filled, leftover := a.fillCycles(env, t)
		d.filled = filled
		d.wPrime = stBus + units.Duration(fid-1+leftover)*msLen
		d.w = units.SatAdd(d.sigma, units.SatAdd(units.Duration(filled)*cycle, d.wPrime))
		if d.w > bound {
			d.sat = true
			return d
		}
		if d.w <= t {
			return d
		}
		t = d.w
	}
	d.capped = true
	return d
}

// fillNeed returns the number of *extra* minislots (beyond the one
// minislot every lower slot consumes when empty) that lower-FrameID
// interference must contribute in a cycle to push the message past its
// latest transmission start. A cycle is "filled" by interference iff
// the extras reach this value (condition 1 of Section 5.1). fid is the
// bound FrameID of the message and di its dense DYN index.
func (a *Analyzer) fillNeed(act *model.Activity, fid, di int) int {
	switch a.cfg.Policy {
	case flexray.LatestTxPerNode:
		// Blocked iff counter fid+E > pLatestTx.
		p := a.cfg.NumMinislots
		if largest := a.largestMS[act.Node]; largest > 0 {
			p = a.cfg.NumMinislots - largest + 1
		}
		return p - fid + 1
	default:
		// Blocked iff fid+E+s-1 > NumMinislots.
		return a.cfg.NumMinislots - a.sizeMS[di] - fid + 2
	}
}

// flatEnv is the interference environment of one DYN message — the
// higher-priority local messages sharing its FrameID (hp(m)) and the
// lower-FrameID messages (lf(m)) grouped per FrameID — stored as
// offsets into the dynArena slabs instead of per-env heap slices.
// Unused lower slots (ms(m)) are implicit: every FrameID below fid
// costs one minislot per cycle whether used or not, which is why only
// the *extra* minislots of actual transmissions matter for filling.
type flatEnv struct {
	built bool
	need  int
	// hp(m) is ar.hp[hpLo:hpHi].
	hpLo, hpHi int32
	// The lf items are ar.lf[lfLo:lfHi], sorted by (FrameID asc,
	// extra desc, id asc); ar.budget is indexed identically. The
	// per-FrameID groups are contiguous runs: group g of this env
	// ends at ar.grp[grpLo+g] (and starts where the previous one
	// ended, or at lfLo).
	lfLo, lfHi   int32
	grpLo, grpHi int32
}

// dynArena holds every DYN interference environment of an analyzer in
// index-addressed slabs: appending to a slab can grow its backing
// array, but existing environments stay valid because they hold
// offsets, not pointers. Invalidation resets the slab lengths and
// keeps the capacity, so a FrameID move rebuilds into existing memory.
type dynArena struct {
	envs []flatEnv
	// hp holds the hp(m) activity ids of every env.
	hp []model.ActID
	// lf holds the lf(m) items of every env; budget is the
	// instance-count row refilled by every fillCycles call, indexed
	// like lf; grp holds the per-env group end offsets into lf.
	lf     []lfItem
	budget []int64
	grp    []int32
	// cands is greedyFill's candidate list (one slot per group,
	// ordered by extra descending, then FrameID ascending); exactBud
	// is the budget copy of exactFill. Both exist so the Eq. (3)
	// fixpoint iterates without allocating.
	cands    []pick
	exactBud []int64
	// lfSorter wraps the freshly appended lf run for the
	// construction-time sort: a pooled sort.Interface avoids the
	// per-call closure and reflect.Swapper allocations of sort.Slice.
	lfSorter lfItemSorter
}

// invalidate retires every environment, keeping slab capacity.
func (ar *dynArena) invalidate() {
	ar.hp = ar.hp[:0]
	ar.lf = ar.lf[:0]
	ar.grp = ar.grp[:0]
	for i := range ar.envs {
		ar.envs[i].built = false
	}
}

// groups returns the number of FrameID groups of env.
func (ar *dynArena) groups(e *flatEnv) int { return int(e.grpHi - e.grpLo) }

// groupBounds returns the [start, end) lf-slab range of group g.
func (ar *dynArena) groupBounds(e *flatEnv, g int) (int, int) {
	start := int(e.lfLo)
	if g > 0 {
		start = int(ar.grp[int(e.grpLo)+g-1])
	}
	return start, int(ar.grp[int(e.grpLo)+g])
}

type lfItem struct {
	fid   int // FrameID of the interfering message
	id    model.ActID
	extra int // SizeInMinislots - 1
}

// lfItemSorter orders lf items by (FrameID asc, extra desc, id asc) — a
// total order, so the result is the FrameID-ascending group sequence
// with each group internally sorted exactly as before.
type lfItemSorter struct{ s []lfItem }

func (p *lfItemSorter) Len() int { return len(p.s) }
func (p *lfItemSorter) Less(i, j int) bool {
	a, b := &p.s[i], &p.s[j]
	if a.fid != b.fid {
		return a.fid < b.fid
	}
	if a.extra != b.extra {
		return a.extra > b.extra
	}
	return a.id < b.id
}
func (p *lfItemSorter) Swap(i, j int) { p.s[i], p.s[j] = p.s[j], p.s[i] }

// buildEnv gathers the interference environment of one message into the
// arena slabs. An unassigned interferer reads as FrameID 0 (below every
// real FrameID), matching the map-indexing semantics the grouping has
// always had.
func (a *Analyzer) buildEnv(di int, act *model.Activity, fid int) *flatEnv {
	ar := &a.ar
	env := &ar.envs[di]
	env.hpLo = int32(len(ar.hp))
	env.lfLo = int32(len(ar.lf))
	env.grpLo = int32(len(ar.grp))
	app := &a.sys.App
	for mi, m := range a.dynMsgs {
		if m == act.ID {
			continue
		}
		ofid := a.fids[mi]
		if ofid < 0 {
			ofid = 0
		}
		switch {
		case ofid == fid:
			// Same FrameID: same node by construction; the higher
			// priority message occupies the slot (hp(m)).
			other := app.Act(m)
			if other.Priority > act.Priority ||
				(other.Priority == act.Priority && m < act.ID) {
				ar.hp = append(ar.hp, m)
			}
		case ofid < fid:
			if e := a.sizeMS[mi] - 1; e > 0 {
				ar.lf = append(ar.lf, lfItem{fid: ofid, id: m, extra: e})
			}
		}
	}
	env.hpHi = int32(len(ar.hp))
	env.lfHi = int32(len(ar.lf))
	ar.lfSorter.s = ar.lf[env.lfLo:env.lfHi]
	sort.Sort(&ar.lfSorter)

	// Record the group end offsets of the sorted run and size the
	// budget row alongside the lf slab.
	for i := int(env.lfLo); i < int(env.lfHi); {
		j := i
		for j < int(env.lfHi) && ar.lf[j].fid == ar.lf[i].fid {
			j++
		}
		ar.grp = append(ar.grp, int32(j))
		i = j
	}
	env.grpHi = int32(len(ar.grp))
	if cap(ar.budget) < len(ar.lf) {
		ar.budget = make([]int64, len(ar.lf), cap(ar.lf))
	} else {
		ar.budget = ar.budget[:len(ar.lf)]
	}
	env.built = true
	return env
}

// instances returns how many activations of message m can fall inside a
// window of length t, given its inherited jitter (the standard
// ceil((t+J)/T) term).
func (a *Analyzer) instances(m model.ActID, t units.Duration) int64 {
	n := units.CeilDiv(int64(t)+int64(a.j[m]), int64(a.period[m]))
	if n < 0 {
		return 0
	}
	return n
}

// fillCycles returns the worst-case number of bus cycles that
// interference can fill within a window of length t (BusCyclesm(t)),
// plus the largest number of extra minislots the leftover interference
// can still place before the message's slot in the final, non-filled
// cycle (the w'm component).
//
// Filling through lower FrameIDs is a bin-covering problem: each filled
// cycle needs `need` extra minislots contributed by distinct-FrameID
// messages; each hp(m) instance fills one cycle outright. The default
// solver is the polynomial greedy heuristic; Options.ExactFill enables
// the branch-and-bound of ref [14] (with fallback when the search
// explodes).
func (a *Analyzer) fillCycles(env *flatEnv, t units.Duration) (filled int64, leftover int) {
	ar := &a.ar
	// hp(m): every instance occupies the slot for one whole cycle.
	var hpFill int64
	for _, m := range ar.hp[env.hpLo:env.hpHi] {
		hpFill += a.instances(m, t)
	}

	// Budgets for lf items within the window; the row is part of the
	// arena and refilled in place (greedyFill and leftoverExtras
	// consume it destructively, exactly as before).
	for i := int(env.lfLo); i < int(env.lfHi); i++ {
		ar.budget[i] = a.instances(ar.lf[i].id, t)
	}

	var lfFill int64
	if a.opts.ExactFill {
		var exact bool
		lfFill, exact = ar.exactFill(env, a.opts.FillNodeCap)
		if !exact {
			lfFill = ar.greedyFill(env)
		}
	} else {
		lfFill = ar.greedyFill(env)
	}

	// Leftover: maximise extras in the final cycle without reaching
	// `need` (the message still transmits, as late as possible).
	leftover = ar.leftoverExtras(env)
	return hpFill + lfFill, leftover
}

// greedyFill fills cycles in runs from one candidate list per call. A
// group's candidate is its first item with budget left (its largest
// extra; groups are sorted by extra descending). The list holds one
// candidate per group, ordered by extra descending and then by group
// ordinal, i.e. FrameID, ascending — the order in which the dynamic
// segment serves equal claims. Each cycle takes the list's prefix until
// the need is met, then swaps the last pick for the smallest later item
// of its group that still meets the need (saving large extras for later
// cycles). Those picks cannot change until one of their budgets reaches
// zero, so the run of k identical cycles, k the smallest pick budget,
// is filled in one step; a candidate it exhausts then moves to its
// group's next budgeted item, shifted right to its place, or leaves the
// list. The result equals filling one cycle at a time. Budgets are
// consumed in place.
func (ar *dynArena) greedyFill(env *flatEnv) int64 {
	// Build the list by insertion: groups arrive in ordinal order, so
	// a new candidate only passes strictly smaller extras.
	cands := ar.cands[:0]
	for g := 0; g < ar.groups(env); g++ {
		start, end := ar.groupBounds(env, g)
		if i := ar.firstBudgeted(start, end); i < end {
			c := pick{g, i, ar.lf[i].extra}
			cands = append(cands, c)
			p := len(cands) - 1
			for ; p > 0 && cands[p-1].extra < c.extra; p-- {
				cands[p] = cands[p-1]
			}
			cands[p] = c
		}
	}
	ar.cands = cands

	var filled int64
	for {
		n, total := 0, 0
		for n < len(cands) && total < env.need {
			total += cands[n].extra
			n++
		}
		if total < env.need {
			return filled
		}
		// Swap target of the last pick: the smallest same-group item
		// after it that still meets the need, or the pick itself.
		last := cands[n-1]
		base := total - last.extra
		swap := last.ii
		_, gEnd := ar.groupBounds(env, last.gi)
		for i := gEnd - 1; i > last.ii; i-- {
			if ar.budget[i] > 0 && base+ar.lf[i].extra >= env.need {
				swap = i
				break
			}
		}
		k := ar.budget[swap]
		for _, c := range cands[:n-1] {
			k = min(k, ar.budget[c.ii])
		}
		ar.budget[swap] -= k
		for _, c := range cands[:n-1] {
			ar.budget[c.ii] -= k
		}
		filled += k
		// Re-position exhausted candidates from the back, so the part
		// of the list after each one is already in order. A
		// swapped-away last candidate kept its budget.
		for p := n - 1; p >= 0; p-- {
			c := &cands[p]
			if ar.budget[c.ii] > 0 {
				continue
			}
			_, gEnd := ar.groupBounds(env, c.gi)
			next := ar.firstBudgeted(c.ii+1, gEnd)
			if next == gEnd {
				cands = append(cands[:p], cands[p+1:]...)
				continue
			}
			moved := pick{c.gi, next, ar.lf[next].extra}
			q := p
			for ; q+1 < len(cands); q++ {
				o := cands[q+1]
				if o.extra < moved.extra || (o.extra == moved.extra && o.gi > moved.gi) {
					break
				}
				cands[q] = o
			}
			cands[q] = moved
		}
	}
}

// firstBudgeted returns the first lf index in [i, end) with budget
// left, or end.
func (ar *dynArena) firstBudgeted(i, end int) int {
	for i < end && ar.budget[i] <= 0 {
		i++
	}
	return i
}

// pick references one lf item: gi is its group ordinal within the env,
// ii its absolute index into the lf/budget slabs.
type pick struct {
	gi, ii int
	extra  int
}

// leftoverExtras maximises the extra minislots placed in the final
// cycle while staying strictly below the need (one item per group at
// most). Greedy descending with cap; this lower-bounds the adversary's
// true optimum but is exact whenever a single group dominates, and the
// result is additionally capped at need-1 which is the analytical
// maximum.
func (ar *dynArena) leftoverExtras(env *flatEnv) int {
	cap := env.need - 1
	total := 0
	start := int(env.lfLo)
	for g := 0; g < int(env.grpHi-env.grpLo); g++ {
		end := int(ar.grp[int(env.grpLo)+g])
		for i := start; i < end; i++ {
			if ar.budget[i] <= 0 {
				continue
			}
			if total+ar.lf[i].extra <= cap {
				total += ar.lf[i].extra
				break // one item per FrameID group
			}
		}
		start = end
	}
	if total > cap {
		total = cap
	}
	return total
}

// exactFill maximises the number of filled cycles by branch and bound:
// at each step it either closes a cycle using a subset of
// distinct-group items meeting the need, or stops. The state space is
// pruned with the fractional upper bound total/need. Returns
// (best, true) on completion, or (partial, false) once the node budget
// is exhausted.
func (ar *dynArena) exactFill(env *flatEnv, nodeCap int) (int64, bool) {
	// Work on a pooled copy: the caller reuses the budget row for
	// leftovers. b is indexed relative to lfLo.
	lfLo, lfHi := int(env.lfLo), int(env.lfHi)
	n := lfHi - lfLo
	if cap(ar.exactBud) < n {
		ar.exactBud = make([]int64, n)
	}
	b := ar.exactBud[:n]
	copy(b, ar.budget[lfLo:lfHi])
	nodes := 0
	var best int64
	exact := true
	nGroups := ar.groups(env)

	totalExtras := func() int64 {
		var s int64
		for i := 0; i < n; i++ {
			s += b[i] * int64(ar.lf[lfLo+i].extra)
		}
		return s
	}

	var fill func(done int64)
	fill = func(done int64) {
		if done > best {
			best = done
		}
		nodes++
		if nodes > nodeCap {
			exact = false
			return
		}
		// Upper bound: even fractional packing cannot beat this.
		if ub := done + totalExtras()/int64(env.need); ub <= best {
			return
		}
		// Enumerate maximal distinct-group subsets meeting the
		// need. To bound branching, only the per-group choice of
		// "which item" matters; we recurse over groups.
		var choose func(gi, sum int, picks []pick)
		choose = func(gi, sum int, picks []pick) {
			if nodes > nodeCap {
				exact = false
				return
			}
			if sum >= env.need {
				for _, p := range picks {
					b[p.ii-lfLo]--
				}
				fill(done + 1)
				for _, p := range picks {
					b[p.ii-lfLo]++
				}
				return
			}
			if gi >= nGroups {
				return
			}
			// Skip this group.
			choose(gi+1, sum, picks)
			// Or take one of its budgeted items (distinct extras
			// only; identical extras are symmetric).
			seen := -1
			gStart, gEnd := ar.groupBounds(env, gi)
			for i := gStart; i < gEnd; i++ {
				if b[i-lfLo] <= 0 || ar.lf[i].extra == seen {
					continue
				}
				seen = ar.lf[i].extra
				nodes++
				choose(gi+1, sum+ar.lf[i].extra, append(picks, pick{gi, i, ar.lf[i].extra}))
			}
		}
		choose(0, 0, nil)
	}
	fill(0)
	return best, exact
}
