// The trace subcommand renders one exported trace — fetched from a
// running flexray-serve or read from a JSONL file — as a duration
// breakdown: the span tree with total and self times per span, plus an
// aggregate of where the wall clock actually went. It is the terminal
// face of the span-tracing pipeline: submit a job with -trace-sample
// on, copy the X-Trace-Id from the response, and point this at it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// traceOptions are the trace subcommand's flags, registered through
// registerTraceFlags so the docs-drift guard can enumerate them.
type traceOptions struct {
	server string
	in     string
	top    int
}

// registerTraceFlags declares the trace flag set on fs and returns the
// parse destination.
func registerTraceFlags(fs *flag.FlagSet) *traceOptions {
	o := &traceOptions{}
	fs.StringVar(&o.server, "server", "http://localhost:8080",
		"flexray-serve base URL to fetch GET /v1/traces/{id} from")
	fs.StringVar(&o.in, "in", "",
		`read the trace from this JSONL file instead of a server ("-" for stdin)`)
	fs.IntVar(&o.top, "top", 10,
		"rows in the self-time aggregate table (0 disables it)")
	return o
}

// runTrace executes the subcommand: load spans, group them by trace,
// render each requested trace as a tree.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexray-bench trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := registerTraceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "flexray-bench trace: unexpected argument %q\n", fs.Arg(1))
		fs.Usage()
		return 2
	}
	id := fs.Arg(0)
	if id != "" {
		if _, err := obs.ParseTraceID(id); err != nil {
			fmt.Fprintf(stderr, "flexray-bench trace: %v\n", err)
			return 2
		}
	}

	var spans []obs.SpanData
	var err error
	switch {
	case o.in != "":
		spans, err = loadSpanFile(o.in)
	case id == "":
		fmt.Fprintln(stderr, "flexray-bench trace: need a trace ID (or -in FILE)")
		fs.Usage()
		return 2
	default:
		spans, err = fetchSpans(strings.TrimRight(o.server, "/"), id)
	}
	if err != nil {
		fmt.Fprintln(stderr, "flexray-bench trace:", err)
		return 1
	}

	// A span file may hold several traces; an explicit ID selects one,
	// otherwise every trace in the input is rendered in first-seen
	// order.
	byTrace := map[string][]obs.SpanData{}
	var order []string
	for _, sd := range spans {
		k := sd.TraceID.String()
		if _, seen := byTrace[k]; !seen {
			order = append(order, k)
		}
		byTrace[k] = append(byTrace[k], sd)
	}
	if id != "" {
		if _, ok := byTrace[id]; !ok {
			fmt.Fprintf(stderr, "flexray-bench trace: trace %s not in input (%d spans, %d traces)\n",
				id, len(spans), len(order))
			return 1
		}
		order = []string{id}
	}
	if len(order) == 0 {
		fmt.Fprintln(stderr, "flexray-bench trace: input holds no spans")
		return 1
	}
	for i, k := range order {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		renderTrace(stdout, k, byTrace[k], o.top)
	}
	return 0
}

// fetchSpans downloads GET /v1/traces/{id} and decodes the JSONL body.
func fetchSpans(base, id string) ([]obs.SpanData, error) {
	url := base + "/v1/traces/" + id
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return decodeSpans(resp.Body)
}

// loadSpanFile reads a span JSONL file; "-" means stdin.
func loadSpanFile(path string) ([]obs.SpanData, error) {
	if path == "-" {
		return decodeSpans(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeSpans(f)
}

// decodeSpans parses one OTLP/JSON span per line, skipping blanks.
func decodeSpans(r io.Reader) ([]obs.SpanData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var spans []obs.SpanData
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var sd obs.SpanData
		if err := json.Unmarshal(b, &sd); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		spans = append(spans, sd)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// traceRow is one rendered line of the span tree, collected first so
// the duration columns align across the whole tree.
type traceRow struct {
	label string // tree glyphs + span name
	total time.Duration
	self  time.Duration
	pct   float64 // self as a share of the trace wall time
	conv  string  // convergence summary of the span's events
	err   string  // status message when the span failed
}

// renderTrace prints one trace: a header, the parent/child tree with
// total and self durations, and the top-N self-time aggregate. Self
// time is the span's duration minus its children's — the time spent in
// that layer itself. Children that ran in parallel (campaign shards)
// can overlap their parent, so self is floored at zero.
func renderTrace(w io.Writer, traceID string, spans []obs.SpanData, top int) {
	present := map[obs.SpanID]bool{}
	for _, sd := range spans {
		present[sd.SpanID] = true
	}
	children := map[obs.SpanID][]int{}
	var roots []int
	for i, sd := range spans {
		if !sd.Parent.IsZero() && present[sd.Parent] {
			children[sd.Parent] = append(children[sd.Parent], i)
		} else {
			// True roots and orphans whose parent was dropped or lives
			// in another process both anchor the tree.
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].Start.Before(spans[idx[b]].Start) })
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	// Wall time spans the earliest start to the latest end across the
	// whole trace — the denominator of every percentage.
	var first, last time.Time
	for _, sd := range spans {
		end := sd.Start.Add(sd.Duration)
		if first.IsZero() || sd.Start.Before(first) {
			first = sd.Start
		}
		if end.After(last) {
			last = end
		}
	}
	wall := last.Sub(first)

	var rows []traceRow
	var walk func(i int, prefix, childPrefix string)
	walk = func(i int, prefix, childPrefix string) {
		sd := spans[i]
		self := sd.Duration
		for _, c := range children[sd.SpanID] {
			self -= spans[c].Duration
		}
		if self < 0 {
			self = 0
		}
		row := traceRow{label: prefix + sd.Name, total: sd.Duration, self: self, conv: convergence(sd)}
		if wall > 0 {
			row.pct = 100 * float64(self) / float64(wall)
		}
		if sd.Status == obs.StatusError {
			row.err = sd.StatusMsg
			if row.err == "" {
				row.err = "error"
			}
		}
		rows = append(rows, row)
		kids := children[sd.SpanID]
		for n, c := range kids {
			glyph, cont := "├─ ", "│  "
			if n == len(kids)-1 {
				glyph, cont = "└─ ", "   "
			}
			walk(c, childPrefix+glyph, childPrefix+cont)
		}
	}
	for _, r := range roots {
		walk(r, "", "")
	}

	fmt.Fprintf(w, "trace %s: %d spans, %d root(s), wall %s\n",
		traceID, len(spans), len(roots), fmtDur(wall))
	width := 0
	for _, r := range rows {
		if n := len([]rune(r.label)); n > width {
			width = n
		}
	}
	for _, r := range rows {
		pad := strings.Repeat(" ", width-len([]rune(r.label)))
		fmt.Fprintf(w, "%s%s  %10s total  %10s self  %5.1f%%", r.label, pad,
			fmtDur(r.total), fmtDur(r.self), r.pct)
		if r.conv != "" {
			fmt.Fprintf(w, "  %s", r.conv)
		}
		if r.err != "" {
			fmt.Fprintf(w, "  ERROR: %s", r.err)
		}
		fmt.Fprintln(w)
	}

	if top <= 0 {
		return
	}
	// Aggregate self time by span name: with dozens of campaign.system
	// spans the tree shows structure, this table shows where the time
	// went.
	type agg struct {
		name  string
		count int
		self  time.Duration
	}
	sums := map[string]*agg{}
	var names []string
	for _, r := range rows {
		name := strings.TrimLeft(r.label, "│├└─ ")
		a := sums[name]
		if a == nil {
			a = &agg{name: name}
			sums[name] = a
			names = append(names, name)
		}
		a.count++
		a.self += r.self
	}
	sort.SliceStable(names, func(a, b int) bool { return sums[names[a]].self > sums[names[b]].self })
	if len(names) > top {
		names = names[:top]
	}
	fmt.Fprintf(w, "\n%-24s %6s %12s %7s\n", "self time by span", "count", "self", "share")
	for _, n := range names {
		a := sums[n]
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(a.self) / float64(wall)
		}
		fmt.Fprintf(w, "%-24s %6d %12s %6.1f%%\n", a.name, a.count, fmtDur(a.self), pct)
	}
}

// convergence summarises a span's events for its tree row: the count
// and, when the last event carries cost and evaluations (the
// optimisers' "best" events on opt.<ALG> spans, whose last one is the
// run's result), where the run ended up — plus the events the
// per-span bound dropped. Spans without events render nothing.
func convergence(sd obs.SpanData) string {
	if len(sd.Events) == 0 && sd.DroppedEvents == 0 {
		return ""
	}
	s := fmt.Sprintf("%d events", len(sd.Events))
	if n := len(sd.Events); n > 0 {
		last := sd.Events[n-1].Attrs
		cost, okCost := obs.AttrValue(last, "cost").(float64)
		evals, okEvals := obs.AttrValue(last, "evaluations").(int64)
		if okCost && okEvals {
			s += fmt.Sprintf(", best %s @ %d evals", strconv.FormatFloat(cost, 'f', -1, 64), evals)
		}
	}
	if sd.DroppedEvents > 0 {
		s += fmt.Sprintf(" (+%d dropped)", sd.DroppedEvents)
	}
	return s
}

// fmtDur trims a duration to a readable precision for the tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
