package campaign

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
)

// Options tune one campaign: a sweep of the optimiser suite over a
// generated population of systems.
type Options struct {
	// Workers is the number of systems optimised concurrently; <= 0
	// selects GOMAXPROCS. Records are independent per system, so the
	// worker count never changes their content, only the throughput.
	Workers int
	// Algorithms selects the optimisers run per system, in order
	// (default: the full canonical portfolio).
	Algorithms []string
	// SAWarmFromOBC warm-starts SA with the best OBC configuration
	// of the same system — the paper's Fig. 9 baseline protocol,
	// which emulates its hours-long independent SA runs with a
	// bounded budget. It requires SA to be listed after the OBC
	// variants (the canonical order does).
	SAWarmFromOBC bool
}

// Record is the streamed result of one system of a campaign.
type Record struct {
	// Index is the position of the system in the spec slice; records
	// are emitted in increasing index order.
	Index int `json:"index"`
	// Name is the generated system's name.
	Name string `json:"name,omitempty"`
	// Nodes and Seed identify the generator parameters.
	Nodes int   `json:"nodes"`
	Seed  int64 `json:"seed"`
	// Err reports a generation or structural failure; Runs is empty
	// then.
	Err string `json:"error,omitempty"`
	// Runs carries the per-algorithm telemetry in request order.
	Runs []AlgoRun `json:"runs,omitempty"`
	// Best names the winning algorithm (canonical tie-break) and
	// BestCost/Schedulable summarise its outcome. BestCost is never
	// elided: a cost of exactly 0 sits on the schedulability
	// boundary and must stay distinguishable from "no winner"
	// (which empties Best instead).
	Best        string  `json:"best,omitempty"`
	BestCost    float64 `json:"best_cost"`
	Schedulable bool    `json:"schedulable"`
	// Engine snapshots the per-system evaluation engine.
	Engine EngineStats `json:"engine"`
}

// normalized applies defaults and canonicalises the algorithm list.
func (o Options) normalized() (Options, error) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Workers = ClampWorkers(o.Workers)
	if len(o.Algorithms) == 0 {
		o.Algorithms = Algorithms
	}
	var err error
	o.Algorithms, err = NormalizeAlgorithms(o.Algorithms)
	return o, err
}

// Run shards the population across Workers goroutines — each system is
// generated from its synth.Params and optimised with the configured
// algorithm suite — and emits one Record per system, in spec order
// (out-of-order completions are buffered). Each record depends only on
// its own spec, so the output is deterministic for any worker count.
// A non-nil error from emit, or a cancelled ctx, aborts the campaign.
func Run(ctx context.Context, specs []synth.Params, opts core.Options, copts Options, emit func(Record) error) error {
	copts, err := copts.normalized()
	if err != nil {
		return err
	}
	return runShards(ctx, len(specs), copts.Workers, emit, func(ctx context.Context, i int) Record {
		return evaluateSystem(ctx, i, specs[i], opts, copts)
	})
}

// RunSystems is Run over an explicit, pre-built population — uploaded
// systems instead of generator parameters — with the same sharding,
// ordering and determinism guarantees.
func RunSystems(ctx context.Context, systems []*model.System, opts core.Options, copts Options, emit func(Record) error) error {
	copts, err := copts.normalized()
	if err != nil {
		return err
	}
	return runShards(ctx, len(systems), copts.Workers, emit, func(ctx context.Context, i int) Record {
		rec := Record{Index: i, Nodes: systems[i].Platform.NumNodes, Name: systems[i].Name}
		if err := ctx.Err(); err != nil {
			rec.Err = err.Error()
			return rec
		}
		optimiseSystem(ctx, &rec, systems[i], opts, copts)
		return rec
	})
}

// runShards is the shared campaign machinery: n independent work items
// sharded across workers, records emitted strictly in index order.
func runShards(ctx context.Context, n, workers int, emit func(Record) error, eval func(ctx context.Context, i int) Record) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		item atomic.Int64 // the next work item to pull
		wg   sync.WaitGroup
	)
	results := make(chan Record, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One "campaign.shard" span per worker goroutine groups
			// the per-system spans it processes; the pprof label
			// attributes the shard's CPU samples.
			wctx, wsp := obs.StartSpan(ctx, "campaign.shard")
			wsp.SetInt("shard", int64(w))
			systems := 0
			defer func() {
				wsp.SetInt("systems", int64(systems))
				wsp.End()
			}()
			pprof.Do(wctx, pprof.Labels("campaign_shard", strconv.Itoa(w)), func(wctx context.Context) {
				for i := int(item.Add(1) - 1); i < n && wctx.Err() == nil; i = int(item.Add(1) - 1) {
					rec := eval(wctx, i)
					systems++
					select {
					case results <- rec:
					case <-wctx.Done():
						return
					}
				}
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: emit strictly in index order.
	pending := map[int]Record{}
	next := 0
	var emitErr error
	for rec := range results {
		pending[rec.Index] = rec
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if emitErr == nil {
				if err := emit(r); err != nil {
					emitErr = err
					cancel()
				}
			}
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return parent.Err()
}

// WriteJSONL runs the campaign and streams every record as one JSON
// line to w; the full record slice is also returned for in-process
// aggregation.
func WriteJSONL(ctx context.Context, specs []synth.Params, opts core.Options, copts Options, w io.Writer) ([]Record, error) {
	enc := json.NewEncoder(w)
	var recs []Record
	err := Run(ctx, specs, opts, copts, func(r Record) error {
		recs = append(recs, r)
		return enc.Encode(r)
	})
	return recs, err
}

// PopulationSpecs builds the Section 7 evaluation population: for each
// node count, apps systems seeded deterministically from the base seed
// (the Fig. 9 seeding scheme). A positive deadlineFactor overrides the
// generator default.
func PopulationSpecs(nodeCounts []int, apps int, seed int64, deadlineFactor float64) []synth.Params {
	var specs []synth.Params
	for _, nodes := range nodeCounts {
		for app := 0; app < apps; app++ {
			sp := synth.DefaultParams(nodes, seed+int64(nodes)*1000+int64(app))
			if deadlineFactor > 0 {
				sp.DeadlineFactor = deadlineFactor
			}
			specs = append(specs, sp)
		}
	}
	return specs
}

// evaluateSystem generates and optimises one system of the campaign.
func evaluateSystem(ctx context.Context, idx int, sp synth.Params, opts core.Options, copts Options) Record {
	rec := Record{Index: idx, Nodes: sp.Nodes, Seed: sp.Seed}
	if err := ctx.Err(); err != nil {
		rec.Err = err.Error()
		return rec
	}
	sys, err := synth.Generate(sp)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Name = sys.Name
	optimiseSystem(ctx, &rec, sys, opts, copts)
	return rec
}

// optimiseSystem runs the configured algorithm suite on one system and
// fills in the record's runs, winner and engine telemetry. Each system
// gets an engine with one evaluation worker: the across-system
// parallelism of Workers already saturates the machine.
func optimiseSystem(ctx context.Context, rec *Record, sys *model.System, opts core.Options, copts Options) {
	engine := NewEngine(ctx, EngineOptions{Workers: 1})
	runOpts := engine.Hook(opts)
	ctx, ssp := obs.StartSpan(ctx, "campaign.system")
	ssp.SetString("system", sys.Name)
	runOpts.Span = ssp
	defer func() { endSystemSpan(ssp, engine.Stats()) }()

	var (
		obcCfg  *flexray.Config
		obcCost float64
	)
	for _, alg := range copts.Algorithms {
		aOpts := runOpts
		if alg == "SA" && copts.SAWarmFromOBC && obcCfg != nil {
			aOpts.SAWarmStart = obcCfg
		}
		res, err := runAlgorithm(ctx, alg, sys, aOpts)
		run := newAlgoRun(alg, res, err)
		rec.Runs = append(rec.Runs, run)
		if err != nil {
			continue
		}
		if (alg == "OBC-CF" || alg == "OBC-EE") && (obcCfg == nil || res.Cost < obcCost) {
			obcCfg, obcCost = res.Config, res.Cost
		}
	}

	if best := bestRun(rec.Runs); best != nil {
		rec.Best = best.Algorithm
		rec.BestCost = best.Cost
		rec.Schedulable = best.Schedulable
	} else if len(rec.Runs) > 0 && rec.Err == "" {
		rec.Err = rec.Runs[0].Err
	}
	rec.Engine = engine.Stats()
	// A cancellation mid-system makes the optimiser outputs garbage
	// (every evaluation returned the infeasible marker); mark the
	// record instead of streaming fabricated results.
	if engine.Cancelled() {
		rec.Err = ctx.Err().Error()
		rec.Runs = nil
		rec.Best, rec.BestCost, rec.Schedulable = "", 0, false
	}
}
