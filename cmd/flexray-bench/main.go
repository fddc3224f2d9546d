// flexray-bench regenerates the figures of the paper's evaluation
// section. Each subcommand prints the rows or series of one figure;
// `all` runs everything.
//
// Usage:
//
//	flexray-bench fig1            # protocol mechanics trace (Fig. 1)
//	flexray-bench fig3            # ST segment optimisation example (Fig. 3)
//	flexray-bench fig4            # DYN segment optimisation example (Fig. 4)
//	flexray-bench fig7            # response time vs DYN length (Fig. 7)
//	flexray-bench fig9 [-full]    # heuristic evaluation (Fig. 9, both panels)
//	flexray-bench campaign        # population sweep streamed as JSONL
//	flexray-bench campaign -submit http://host:8080
//	                              # same sweep, submitted as an async job
//	                              # to a running flexray-serve instead of
//	                              # executing locally
//	flexray-bench cruise          # cruise-controller case study
//	flexray-bench ablation        # design-choice ablations (FrameID order,
//	                              # latest-transmission rule, fill solver)
//	flexray-bench perf [...]      # performance-regression harness
//	                              # (JSON report + time gate against a
//	                              # baseline; see the "perf" flag set)
//	flexray-bench trace [-server URL | -in FILE] [trace-id]
//	                              # render an exported span trace as a
//	                              # duration-breakdown tree (self/total
//	                              # times per span; see the "trace" flag
//	                              # set)
//	flexray-bench all [-full]
//
// The population sweeps (fig7, fig9, campaign) shard their work across
// -workers goroutines through the campaign engine; the default is one
// worker per CPU (runtime.GOMAXPROCS) and the printed figures are
// identical at any worker count. -cpuprofile writes a runtime/pprof
// CPU profile of the whole run for inspecting the evaluation-session
// hot path.
//
// Subcommands are validated before anything runs: an unknown name
// prints the usage and exits 2 without executing the experiments
// listed next to it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
)

// workers is the shared sweep parallelism; run() fills it in from the
// parsed flags before any experiment executes.
var workers = runtime.GOMAXPROCS(0)

// workersSet records an explicit -workers flag: a submitted campaign
// only overrides the server's own worker default when the user asked
// for a specific count (the client's CPU count says nothing about the
// server's).
var workersSet bool

// benchOptions are the global flexray-bench flags. They are
// registered through registerBenchFlags so the docs-drift guard can
// enumerate them without running main.
type benchOptions struct {
	workers    int
	full       bool
	cpuprofile string
	submit     string
	distribute bool
}

// registerBenchFlags declares the global flag set on fs and returns
// the parse destination.
func registerBenchFlags(fs *flag.FlagSet) *benchOptions {
	o := &benchOptions{}
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0),
		"concurrent evaluation workers for the population sweeps (default: one per CPU)")
	fs.BoolVar(&o.full, "full", false, "paper-scale Fig. 9 population (25 apps per node count)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&o.submit, "submit", "", "submit the campaign to a running flexray-serve at this base URL instead of executing locally")
	fs.BoolVar(&o.distribute, "distribute", false, "with -submit: shard the campaign across the server's lease worker peers")
	return o
}

// command is one subcommand: its usage line and its runner. The
// table is the single source of truth for validation, dispatch and
// the usage text — a name cannot be recognised without also being
// runnable and documented.
type command struct {
	name string
	desc string
	run  func(o *benchOptions, inv invocation, stdout, stderr io.Writer) int
}

var commands = []command{
	{"fig1", "protocol mechanics trace (Fig. 1)", experiment(fig1)},
	{"fig3", "ST segment optimisation example (Fig. 3)", experiment(fig3)},
	{"fig4", "DYN segment optimisation example (Fig. 4)", experiment(fig4)},
	{"fig7", "response time vs DYN length (Fig. 7)", experiment(fig7)},
	{"fig9", "heuristic evaluation (Fig. 9, both panels)", experiment(fig9)},
	{"campaign", "population sweep streamed as JSONL (local or -submit)",
		func(o *benchOptions, _ invocation, stdout, stderr io.Writer) int {
			var err error
			switch {
			case o.submit != "":
				err = submitCampaign(o, stdout, stderr)
			case o.distribute:
				fmt.Fprintln(stderr, "flexray-bench: -distribute needs -submit (the shards run on the server's worker peers)")
				return 2
			default:
				err = campaignJSONL(o, stdout, stderr)
			}
			return exitCode(stderr, err)
		}},
	{"cruise", "cruise-controller case study", experiment(cruiseStudy)},
	{"ablation", "design-choice ablations (FrameID order, latest-transmission rule, fill solver)", experiment(ablation)},
	{"perf", `performance-regression harness (own flags; try "perf -h")`,
		func(_ *benchOptions, inv invocation, stdout, stderr io.Writer) int {
			return runPerf(inv.perfArgs, stdout, stderr)
		}},
	{"trace", `span-trace duration breakdown (own flags; try "trace -h")`,
		func(_ *benchOptions, inv invocation, stdout, stderr io.Writer) int {
			return runTrace(inv.traceArgs, stdout, stderr)
		}},
	{"all", "everything except perf", experiment(func(o *benchOptions, w io.Writer) error {
		for _, f := range []func(*benchOptions, io.Writer) error{fig1, fig3, fig4, fig7, cruiseStudy, ablation, fig9} {
			if err := f(o, w); err != nil {
				return err
			}
		}
		return nil
	})},
}

// experiment adapts an experiment that prints to w into a command
// runner: its output goes to stdout, an error to stderr with exit 1.
func experiment(f func(o *benchOptions, w io.Writer) error) func(*benchOptions, invocation, io.Writer, io.Writer) int {
	return func(o *benchOptions, _ invocation, stdout, stderr io.Writer) int {
		return exitCode(stderr, f(o, stdout))
	}
}

// exitCode reports err on stderr and returns the exit status: 0 for a
// nil error, 1 otherwise.
func exitCode(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "flexray-bench:", err)
	return 1
}

// commandByName returns the table entry for name, or nil.
func commandByName(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// invocation is a parsed command line: the experiment subcommands to
// run in order, plus — when the perf harness is invoked — its own
// argument tail.
type invocation struct {
	cmds []string
	// perfArgs is everything after the "perf" subcommand; the perf
	// flag set owns those arguments. traceArgs likewise for "trace".
	perfArgs  []string
	traceArgs []string
}

// splitArgs parses the command line with fs: global flags in any
// position — the flag package stops at the first non-flag argument, so
// parsing resumes after each subcommand name — and the subcommands in
// order. Everything after "perf" or "trace" belongs to that
// subcommand's own flag set.
func splitArgs(fs *flag.FlagSet, args []string) (invocation, error) {
	var inv invocation
	for {
		if err := fs.Parse(args); err != nil {
			return inv, err
		}
		if fs.NArg() == 0 {
			return inv, nil
		}
		cmd, rest := strings.ToLower(fs.Arg(0)), fs.Args()[1:]
		inv.cmds = append(inv.cmds, cmd)
		switch cmd {
		case "perf":
			inv.perfArgs = rest
			return inv, nil
		case "trace":
			inv.traceArgs = rest
			return inv, nil
		}
		args = rest
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexray-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr, fs) }
	o := registerBenchFlags(fs)
	inv, err := splitArgs(fs, argv)
	if err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	// Validate every subcommand before executing any: a typo must
	// not run half the list first.
	for _, cmd := range inv.cmds {
		if commandByName(cmd) == nil {
			fmt.Fprintf(stderr, "flexray-bench: unknown subcommand %q\n", cmd)
			usage(stderr, fs)
			return 2
		}
	}
	workers = o.workers
	if len(inv.cmds) == 0 {
		inv.cmds = []string{"all"}
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "flexray-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "flexray-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	for _, cmd := range inv.cmds {
		if code := commandByName(cmd).run(o, inv, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// usage prints the subcommand table and the global flags.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprint(w, "usage: flexray-bench [flags] [subcommand ...]\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.desc)
	}
	fmt.Fprint(w, "\nflags:\n")
	fs.PrintDefaults()
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}

func fig1(_ *benchOptions, w io.Writer) error {
	header(w, "Fig. 1 — FlexRay communication cycle example (bus trace, 2 cycles)")
	trace, _, err := experiments.Fig1Trace()
	if err != nil {
		return err
	}
	fmt.Fprint(w, trace)
	return nil
}

func fig3(_ *benchOptions, w io.Writer) error {
	header(w, "Fig. 3 — Optimisation of the ST segment (paper: R3 = 16 / 12 / 10)")
	rows, err := experiments.Fig3()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-10s %-8s %-8s %-8s %-10s\n", "variant", "gdCycle", "R1", "R2", "R3", "paper R3")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8v %-10v %-8v %-8v %-8v %-10v\n", r.Variant, r.GdCycle, r.R1, r.R2, r.R3, r.PaperR3)
	}
	return nil
}

func fig4(_ *benchOptions, w io.Writer) error {
	header(w, "Fig. 4 — Optimisation of the DYN segment (paper: R2 = 37 / 35 / 21)")
	rows, err := experiments.Fig4()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-10s %-8s %-8s %-8s %-10s %-12s\n",
		"variant", "gdCycle", "R1", "R2", "R3", "paper R2", "analysed R2")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8v %-10v %-8v %-8v %-8v %-10v %-12v\n",
			r.Variant, r.GdCycle, r.R1, r.R2, r.R3, r.PaperR2, r.AnalysedR2)
	}
	return nil
}

func fig7(_ *benchOptions, w io.Writer) error {
	header(w, "Fig. 7 — Influence of DYN segment length on message response times")
	p := experiments.DefaultFig7Params()
	p.Workers = workers
	series, err := experiments.Fig7(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-12s", "DYNbus(µs)", "gdCycle(µs)")
	for _, n := range series.MessageNames {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintln(w)
	for _, p := range series.Points {
		fmt.Fprintf(w, "%-12.1f %-12.1f", p.DYNBus.Us(), p.GdCycle.Us())
		for _, r := range p.R {
			fmt.Fprintf(w, " %10.0f", r.Us())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n(expect the paper's U shape: responses fall, reach a minimum, then rise)")
	return nil
}

func fig9(o *benchOptions, w io.Writer) error {
	p := experiments.DefaultFig9Params()
	if !o.full {
		p = experiments.QuickFig9Params()
		p.AppsPerSet = 5
	}
	p.Workers = workers
	header(w, fmt.Sprintf("Fig. 9 — Evaluation of bus optimisation algorithms (%d apps / node count)", p.AppsPerSet))
	res, err := experiments.Fig9(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-6s %-14s %-12s %-10s %-12s\n",
		"algo", "nodes", "avg %dev vs SA", "schedulable", "evals", "time")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%-8s %-6d %-14.2f %d/%-10d %-10d %-12v\n",
			c.Algorithm, c.Nodes, c.AvgDeviationPct, c.Schedulable, c.Total, c.Evaluations, c.TotalTime)
	}
	fmt.Fprintln(w, "\n(left panel: BBC deviates most and stops finding schedulable configs as nodes grow;")
	fmt.Fprintln(w, " right panel: BBC runs in ~zero time, OBC-CF well under OBC-EE)")
	return nil
}

// campaignJSONL streams the Fig. 9 population sweep as one JSON record
// per system — the machine-readable face of the evaluation, suitable
// for piping into jq or a plotting notebook.
func campaignJSONL(o *benchOptions, stdout, stderr io.Writer) error {
	p := experiments.QuickFig9Params()
	if o.full {
		p = experiments.DefaultFig9Params()
	}
	specs := campaign.PopulationSpecs(p.NodeCounts, p.AppsPerSet, p.Seed, p.DeadlineFactor)
	fmt.Fprintf(stderr, "campaign: %d systems (%v nodes × %d apps), workers=%d\n",
		len(specs), p.NodeCounts, p.AppsPerSet, workers)
	_, err := campaign.WriteJSONL(context.Background(), specs, p.Opts,
		campaign.Options{Workers: workers, SAWarmFromOBC: true}, stdout)
	return err
}

// submitCampaign ships the campaign population to a running
// flexray-serve as an async job, tails its progress on stderr, and
// prints the finished records to stdout as JSONL — the same output
// shape as the local path, produced remotely.
func submitCampaign(o *benchOptions, stdout, stderr io.Writer) error {
	p := experiments.QuickFig9Params()
	if o.full {
		p = experiments.DefaultFig9Params()
	}
	base := strings.TrimRight(o.submit, "/")
	spec := jobs.Spec{
		Kind:          jobs.KindCampaign,
		SAWarmFromOBC: true,
		Tuning:        jobs.TuningFromOptions(p.Opts),
		// Distribute shards the job across the server's lease worker
		// peers (-peer fleets); the merged result is bit-identical to
		// the server running it alone.
		Distribute: o.distribute,
		Population: &jobs.Population{
			NodeCounts:     p.NodeCounts,
			AppsPerCount:   p.AppsPerSet,
			Seed:           p.Seed,
			DeadlineFactor: p.DeadlineFactor,
		},
	}
	if workersSet {
		// Only an explicit -workers overrides the server's own
		// evaluation-parallelism default.
		spec.Workers = workers
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	body, job, err := decodeJob(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	fmt.Fprintf(stderr, "campaign: submitted job %s (%d systems) to %s\n",
		job.ID, len(p.NodeCounts)*p.AppsPerSet, base)

	for !job.Status.Terminal() {
		time.Sleep(500 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return err
		}
		body, j, err := decodeJob(resp)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("poll: %s: %s", resp.Status, body)
		}
		job = j
		fmt.Fprintf(stderr, "campaign: %s %d/%d (best %s, cost %.1f)\n",
			job.Status, job.Progress.Completed, job.Progress.Total,
			job.Progress.Best, job.Progress.BestCost)
	}
	if job.Status != jobs.StatusDone {
		return fmt.Errorf("job %s: %s", job.Status, job.Error)
	}

	resp, err = http.Get(base + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: %s", resp.Status)
	}
	var res jobs.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	for _, rec := range res.Records {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// decodeJob reads a job snapshot response (closing the body) and also
// returns the raw bytes for error reporting.
func decodeJob(resp *http.Response) ([]byte, jobs.Job, error) {
	defer resp.Body.Close()
	var job jobs.Job
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, job, err
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
			return nil, job, err
		}
	}
	return buf.Bytes(), job, nil
}

func ablation(_ *benchOptions, w io.Writer) error {
	header(w, "Ablations — FrameID order, latest-transmission rule, fill solver")
	rows, err := experiments.Ablations([]int64{1, 2, 3, 4, 5}, 3)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.AblationReport(rows))
	fmt.Fprintln(w, "\n(paper choice = criticality FrameIDs / per-frame rule / greedy fill;")
	fmt.Fprintln(w, " alternatives are reversed FrameIDs / per-node pLatestTx / exact branch-and-bound)")
	return nil
}

func cruiseStudy(_ *benchOptions, w io.Writer) error {
	header(w, "Cruise controller case study (paper: BBC unschedulable; OBC-CF ≈ OBC-EE, much faster)")
	rows, err := experiments.Cruise(core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-12s %-14s %-8s %-12s\n", "algo", "schedulable", "cost", "evals", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-12v %-14.1f %-8d %-12v\n",
			r.Algorithm, r.Schedulable, r.Cost, r.Evaluations, r.Elapsed.Round(1000))
	}
	return nil
}
