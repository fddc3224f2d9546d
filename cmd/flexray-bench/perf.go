// The perf subcommand runs the performance-regression harness
// (internal/perfreg): it measures the curated macro-benchmark suite,
// writes the schema-versioned report to -out when given, and — with
// -baseline — gates the run's time against a report of the parent
// commit, printing a human diff table and exiting 1 on any regression.
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/perfreg"
)

// perfOptions are the perf subcommand's flags, registered through
// registerPerfFlags so the docs-drift guard can enumerate them.
type perfOptions struct {
	quick    bool
	list     bool
	out      string
	baseline string
	timeTol  float64
}

// registerPerfFlags declares the perf flag set on fs and returns the
// parse destination.
func registerPerfFlags(fs *flag.FlagSet) *perfOptions {
	o := &perfOptions{}
	fs.BoolVar(&o.quick, "quick", false,
		"reduced sampling for CI smoke runs (timings get noisier; allocation counts stay identical to a full run)")
	fs.BoolVar(&o.list, "list", false,
		"print the scenario catalogue (name, unit, time tolerance, allocation pass, description) and exit without measuring")
	fs.StringVar(&o.out, "out", "",
		"write the JSON report to this path (default: no file)")
	fs.StringVar(&o.baseline, "baseline", "",
		"compare this run's time against the given report and exit 1 on any regression")
	fs.Float64Var(&o.timeTol, "time-tol", 0,
		"override every scenario's time-regression tolerance, in percent (use a loose value on a shared or noisy machine)")
	return o
}

// perfSuite builds the scenario suite; a variable so the gate-path
// tests can substitute a fast fixture suite.
var perfSuite = perfreg.Suite

// runPerf executes the harness. The report is written before the
// baseline gate runs, so CI keeps the artifact of a failing run.
func runPerf(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexray-bench perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := registerPerfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "flexray-bench perf: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	if o.list {
		fmt.Fprint(stdout, perfreg.Catalogue(perfSuite()))
		return 0
	}

	cfg := perfreg.FullConfig()
	if o.quick {
		cfg = perfreg.QuickConfig()
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	report, err := perfreg.RunSuite(perfSuite(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "flexray-bench perf:", err)
		return 1
	}
	if o.out != "" {
		report.GitSHA = perfreg.GitSHA(".")
		if err := report.WriteFile(o.out); err != nil {
			fmt.Fprintln(stderr, "flexray-bench perf:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perf: report %s (%d scenarios)\n", o.out, len(report.Scenarios))
	}

	if o.baseline == "" {
		return 0
	}
	base, err := perfreg.ReadReport(o.baseline)
	if err != nil {
		fmt.Fprintln(stderr, "flexray-bench perf:", err)
		return 1
	}
	cmp := perfreg.Compare(base, report, perfreg.CompareOptions{TimeTolPct: o.timeTol})
	fmt.Fprintf(stdout, "baseline %s (%s, git %s)\n\n%s\n%s",
		o.baseline, base.Env.GoVersion, base.GitSHA, cmp.Table(), perfreg.Benchstat(base, report))
	if !cmp.OK() {
		fmt.Fprintf(stderr, "perf: %d scenario(s) regressed or missing against %s\n",
			len(cmp.Regressions())+len(cmp.Missing), o.baseline)
		return 1
	}
	fmt.Fprintln(stderr, "perf: no regressions")
	return 0
}
