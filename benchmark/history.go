package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/jobs"
)

// historyJobs is the size of the job history every server starts on:
// set-up time is dominated by replaying it, as it is for a server that
// has been in service for a while.
const historyJobs = 2000

// writeHistory writes a synthetic history of n finished quick Fig. 9
// campaign jobs (twelve systems each) to a fresh job store at path,
// through the public FileStore.Append — the records a server writes for
// a job, in its order: submit, running, done with the result.
func writeHistory(path string, seed int64, n int) error {
	st, err := jobs.NewFileStore(path)
	if err != nil {
		return err
	}
	p := experiments.QuickFig9Params()
	tuning := jobs.TuningFromOptions(p.Opts)
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j-%016x", rng.Uint64())
		submitted := t0.Add(time.Duration(i) * time.Minute)
		started := submitted.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
		finished := started.Add(time.Duration(800+rng.Intn(800)) * time.Millisecond)
		spec := jobs.Spec{
			Kind: jobs.KindCampaign, SAWarmFromOBC: true, Tuning: tuning,
			Population: &jobs.Population{
				NodeCounts: p.NodeCounts, AppsPerCount: p.AppsPerSet,
				Seed: rng.Int63n(1e6), DeadlineFactor: p.DeadlineFactor,
			},
		}
		res := &jobs.Result{Records: syntheticRecords(rng, p.NodeCounts, p.AppsPerSet)}
		body, err := json.Marshal(res)
		if err != nil {
			st.Close()
			return err
		}
		prog := &jobs.Progress{Total: len(res.Records), Completed: len(res.Records)}
		for _, r := range res.Records {
			prog.Engine.Add(r.Engine)
			if r.Schedulable {
				prog.Schedulable++
			}
		}
		for _, rec := range []jobs.StoreRecord{
			{Type: "submit", ID: id, Time: submitted, Spec: &spec},
			{Type: "status", ID: id, Time: started, Status: jobs.StatusRunning},
			{Type: "status", ID: id, Time: finished, Status: jobs.StatusDone,
				Progress: prog, Result: res, ResultBytes: int64(len(body))},
		} {
			if err := st.Append(rec); err != nil {
				st.Close()
				return err
			}
		}
	}
	return st.Close()
}

// syntheticRecords fakes the records of one campaign: the shape and
// size of real ones, with random numbers.
func syntheticRecords(rng *rand.Rand, nodeCounts []int, apps int) []campaign.Record {
	var recs []campaign.Record
	for _, nodes := range nodeCounts {
		for app := 0; app < apps; app++ {
			r := campaign.Record{
				Index: len(recs),
				Name:  fmt.Sprintf("synth-%dn-%d", nodes, rng.Intn(1e6)),
				Nodes: nodes,
				Seed:  rng.Int63n(1e6),
			}
			for _, alg := range campaign.Algorithms {
				cost := float64(rng.Intn(400000) - 300000)
				r.Runs = append(r.Runs, campaign.AlgoRun{
					Algorithm: alg, Cost: cost, Schedulable: cost <= 0,
					Evaluations: 50 + rng.Intn(300), ElapsedUs: int64(1000 + rng.Intn(90000)),
				})
				if r.Best == "" || cost < r.BestCost {
					r.Best, r.BestCost, r.Schedulable = alg, cost, cost <= 0
				}
			}
			r.Engine = campaign.EngineStats{Evaluations: int64(200 + rng.Intn(400)), CacheHits: int64(rng.Intn(300))}
			r.Engine.CacheMisses = r.Engine.Evaluations
			recs = append(recs, r)
		}
	}
	return recs
}
