// Command benchmark measures flexray-serve end to end, as a client
// calls it over loopback, and — with -trace 1 — breaks each workload's
// time down by layer by replaying the same inputs in-process through
// the functions the HTTP handlers call.
//
// From the root of the checkout:
//
//	bash benchmark/run.sh --workload optimize-cruise --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1            # all four workloads
//
// Every metric is printed as "workload metric value unit"; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. results.json and, with -trace 1, the
// spans of each workload (trace/<workload>.spans.jsonl) go to -out.
// The exit code is non-zero when any op failed or an output was wrong.
// See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs all four")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "seconds each workload run measures")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	outDir := fs.String("out", "", "directory for results.json and trace/ (default .bench_build/out in the checkout)")
	smoke := fs.Bool("smoke", false, "one op per phase on tiny inputs, to check the metrics are all emitted")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out dir] [-smoke]")
		return 2
	}
	list := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		list = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAll()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out := *outDir
	if out == "" {
		out = filepath.Join(root, ".bench_build", "out")
	}
	bin := filepath.Join(out, "bin", "flexray-serve")
	if err := buildServe(root, bin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	cal := newCalibrator()
	var outs []*runOutput
	for _, w := range list {
		dir := filepath.Join(out, "work", w.name)
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		e := &env{
			serveBin: bin, out: out, dir: dir,
			seed: *seed, seconds: *seconds, smoke: *smoke,
			history: filepath.Join(dir, "history.jsonl"), historyJobs: historyJobs,
			cal: cal,
		}
		if *smoke {
			e.historyJobs = 20
		}
		o, err := runWorkload(ctx, e, w, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		for _, m := range o.Metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		}
		if o.Layers != nil {
			o.Layers.print(stdout, w.name)
		}
		for _, msg := range o.Errors {
			fmt.Fprintf(os.Stderr, "benchmark: %s\n", msg)
		}
		// Server logs and store copies are only worth keeping when
		// something failed.
		if o.Failed == 0 {
			os.RemoveAll(dir)
		}
		outs = append(outs, o)
	}
	if err := writeResults(filepath.Join(out, "results.json"), outs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, correct := summary(outs, len(list) > 1)
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func writeResults(path string, outs []*runOutput) error {
	b, err := json.MarshalIndent(outs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary renders the final JSON line: the metrics of the run (keyed
// "workload/metric" when several workloads ran), without the extras.
func summary(outs []*runOutput, prefix bool) ([]byte, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	s := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, o := range outs {
		s.Attempted += o.Attempted
		s.Failed += o.Failed
		for _, m := range o.Metrics {
			if m.Extra {
				continue
			}
			key := m.Name
			if prefix {
				key = o.Workload + "/" + m.Name
			}
			s.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	s.Correct = s.Failed == 0
	b, _ := json.Marshal(s)
	return b, s.Correct
}
