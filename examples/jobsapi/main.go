// Jobsapi: drive the asynchronous job subsystem in-process — the same
// engine flexray-serve exposes under /v1/jobs. A campaign over a small
// synthesised population is submitted as a background job with metrics
// and span tracing enabled; its live progress events are tailed as
// they stream in (counting the convergence events recorded so far on
// each one), and the finished record set, per-system convergence
// summary and a scrape of the job metrics are printed — what an
// operator sees via GET /metrics and GET /v1/jobs/{id}/spans. The
// convergence curve of every optimiser run is the list of "best"
// events on its opt.<ALG> span: one per candidate that lowered the
// running best cost.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"
	"time"

	flexopt "repro"
)

func main() {
	// The registry is what flexray-serve exposes at GET /metrics; the
	// job-metrics bridge instruments the manager built below. The
	// tracer records every job's span tree (flexray-serve's
	// -trace-sample 1) into its in-memory span store.
	reg := flexopt.NewMetricsRegistry()
	tracer := flexopt.NewTracer(flexopt.TracerOptions{SampleRatio: 1})

	// An in-memory store keeps the example self-contained; pass a
	// flexopt.NewJobFileStore path instead and jobs survive restarts.
	mgr, err := flexopt.NewJobManager(flexopt.NewJobMemStore(), flexopt.JobManagerOptions{
		Workers:     1,
		EvalWorkers: 2,
		Logf:        log.Printf,
		Metrics:     flexopt.NewJobMetrics(reg),
		Tracer:      tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close(context.Background())

	// A campaign job over eight synthesised systems (2- and 3-node
	// platforms, the paper's Section 7 population) with reduced
	// budgets so the example finishes in seconds.
	job, err := mgr.Submit(flexopt.JobSpec{
		Kind:       flexopt.JobCampaign,
		Algorithms: []string{"bbc", "obc-cf"},
		Tuning: &flexopt.JobTuning{
			DYNGridCap:     24,
			SlotCountCap:   2,
			SlotLenSteps:   3,
			MaxEvaluations: 300,
		},
		Population: &flexopt.JobPopulation{
			NodeCounts:     []int{2, 3},
			AppsPerCount:   4,
			Seed:           1,
			DeadlineFactor: 2.0,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%s)\n", job.ID, job.Status)

	// Tail the progress stream until the terminal transition; the
	// channel closes when the job is done. On every update, count the
	// convergence events of the optimiser runs finished so far, the
	// way a dashboard polls GET /v1/jobs/{id}/spans.
	_, events, cancel, err := mgr.Subscribe(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	for ev := range events {
		p := ev.Job.Progress
		traced := 0
		for _, c := range convergence(tracer, ev.Job) {
			traced += c.events
		}
		fmt.Printf("  %-7s %d/%d schedulable=%d best=%s cost=%.1f trace=%d events\n",
			ev.Job.Status, p.Completed, p.Total, p.Schedulable, p.Best, p.BestCost, traced)
	}

	res, final, err := mgr.Result(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s finished in %v: %d records\n",
		final.ID, final.FinishedAt.Sub(final.StartedAt).Round(1e6), len(res.Records))
	for _, rec := range res.Records {
		line, err := json.Marshal(rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
	}

	// Convergence summary from the job's span trace: per system, how
	// many candidates the optimisers evaluated, the cost of the first
	// one and where the cost fell to.
	bySystem := convergence(tracer, final)
	names := make([]string, 0, len(bySystem))
	traced := 0
	for name, c := range bySystem {
		names = append(names, name)
		traced += c.events
	}
	sort.Strings(names)
	fmt.Printf("convergence (%d best events):\n", traced)
	for _, name := range names {
		c := bySystem[name]
		fmt.Printf("  %-12s %4d candidates  first=%9.1f  best=%9.1f\n",
			name, c.candidates, c.first, c.best)
	}

	// Finally, the jobs slice of the Prometheus scrape — what
	// `curl localhost:8080/metrics | grep flexray_jobs` shows.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		log.Fatal(err)
	}
	fmt.Println("metrics excerpt:")
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "flexray_jobs_") && !strings.Contains(line, "_bucket{") {
			fmt.Println("  " + line)
		}
	}
}

// systemConv is the convergence of one system's optimiser runs, read
// from their opt.<ALG> spans.
type systemConv struct {
	candidates  int64     // sum of the spans' evaluations attributes
	events      int       // "best" events: improvements of a running best
	first, best float64   // cost of the first candidate; lowest result cost
	firstAt     time.Time // when the first candidate was evaluated
}

// convergence groups the finished opt.<ALG> spans of a job's trace by
// the system named on their parent campaign.system span. A run's first
// "best" event is its first candidate and its last one the run's
// result cost.
func convergence(tracer *flexopt.Tracer, job flexopt.Job) map[string]*systemConv {
	id, err := flexopt.ParseTraceID(job.TraceID)
	if err != nil {
		return nil
	}
	spans, _, _ := tracer.Store().Trace(id)
	systems := map[string]string{} // campaign.system span ID → system
	for _, sd := range spans {
		if sd.Name == "campaign.system" {
			systems[sd.SpanID.String()], _ = flexopt.SpanAttr(sd.Attrs, "system").(string)
		}
	}
	out := map[string]*systemConv{}
	for _, sd := range spans {
		if !strings.HasPrefix(sd.Name, "opt.") || len(sd.Events) == 0 {
			continue
		}
		name := systems[sd.Parent.String()]
		c := out[name]
		if c == nil {
			c = &systemConv{best: math.Inf(1)}
			out[name] = c
		}
		evals, _ := flexopt.SpanAttr(sd.Attrs, "evaluations").(int64)
		c.candidates += evals
		c.events += len(sd.Events)
		if first := sd.Events[0]; c.firstAt.IsZero() || first.Time.Before(c.firstAt) {
			c.first, _ = flexopt.SpanAttr(first.Attrs, "cost").(float64)
			c.firstAt = first.Time
		}
		best, _ := flexopt.SpanAttr(sd.Events[len(sd.Events)-1].Attrs, "cost").(float64)
		c.best = math.Min(c.best, best)
	}
	return out
}
