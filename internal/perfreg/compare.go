package perfreg

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// Metric names used in comparisons and summaries.
const (
	MetricTime   = "ns/op"
	MetricAllocs = "allocs/op"
	MetricBytes  = "B/op"
)

// CompareOptions tune the regression gate.
type CompareOptions struct {
	// TimeTolPct, when > 0, overrides every scenario's time
	// tolerance. CI compares against the parent commit measured on
	// the same shared runner, whose timings still jitter, so it passes
	// a loose override that catches only catastrophic slowdowns.
	TimeTolPct float64
}

// madFactor widens the effective time tolerance to at least madFactor
// sample-MADs of noise (the larger of baseline and current), so a
// scenario whose own timing spread exceeds its percentage threshold
// cannot flake the gate.
const madFactor = 3

// MetricDelta is the gated ns/op of one scenario.
type MetricDelta struct {
	Scenario string  `json:"scenario"`
	Base     float64 `json:"base"`
	Cur      float64 `json:"cur"`
	// DeltaPct is the relative change in percent (positive = worse).
	DeltaPct float64 `json:"delta_pct"`
	// TolPct is the effective tolerance applied (after any override
	// and MAD widening).
	TolPct    float64 `json:"tol_pct"`
	Regressed bool    `json:"regressed"`
}

// Comparison is the outcome of gating a current report's time against
// a baseline. Allocations are not gated here: TestScenarioAllocsPinned
// pins them, and Benchstat prints both reports' counts side by side.
type Comparison struct {
	// Missing lists baseline scenarios absent from the current run —
	// lost coverage gates as hard as a regression.
	Missing []string `json:"missing,omitempty"`
	// Added lists current scenarios the baseline lacks (new coverage;
	// never a regression).
	Added  []string      `json:"added,omitempty"`
	Deltas []MetricDelta `json:"deltas"`
}

// Regressions returns the deltas that breached their tolerance.
func (c *Comparison) Regressions() []MetricDelta {
	var out []MetricDelta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the gate passes: every baseline scenario present
// and no time regressed.
func (c *Comparison) OK() bool {
	return len(c.Missing) == 0 && len(c.Regressions()) == 0
}

// Compare gates the time of cur against base scenario by scenario.
// Thresholds come from the baseline, optionally overridden and
// widened per CompareOptions.
func Compare(base, cur *Report, opts CompareOptions) *Comparison {
	c := &Comparison{}
	for i := range base.Scenarios {
		b := &base.Scenarios[i]
		s := cur.Scenario(b.Name)
		if s == nil {
			c.Missing = append(c.Missing, b.Name)
			continue
		}
		if b.NsPerOp <= 0 {
			continue // no time to scale a relative tolerance by
		}
		tol := b.TimeTolPct
		if opts.TimeTolPct > 0 {
			tol = opts.TimeTolPct
		}
		// Noise widening: a threshold tighter than the observed
		// sample spread would gate on scheduler luck, not code.
		tol = max(tol, 100*madFactor*max(b.NsMAD, s.NsMAD)/b.NsPerOp)
		d := MetricDelta{Scenario: b.Name, Base: b.NsPerOp, Cur: s.NsPerOp, TolPct: tol}
		d.DeltaPct = 100 * (s.NsPerOp - b.NsPerOp) / b.NsPerOp
		d.Regressed = d.DeltaPct > tol
		c.Deltas = append(c.Deltas, d)
	}
	for i := range cur.Scenarios {
		if base.Scenario(cur.Scenarios[i].Name) == nil {
			c.Added = append(c.Added, cur.Scenarios[i].Name)
		}
	}
	return c
}

// Table renders the comparison as the human diff table the CLI
// prints: one row per scenario's time, regressions marked, plus
// missing/added scenario notes.
func (c *Comparison) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tmetric\tbaseline\tcurrent\tdelta\ttolerance\tverdict")
	for _, d := range c.Deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED"
		} else if d.DeltaPct < 0 {
			verdict = "improved"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%+.1f%%\t%.0f%%\t%s\n",
			d.Scenario, MetricTime, d.Base, d.Cur, d.DeltaPct, d.TolPct, verdict)
	}
	for _, name := range c.Missing {
		fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tMISSING\n", name)
	}
	for _, name := range c.Added {
		fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tnew\n", name)
	}
	tw.Flush()
	return sb.String()
}

// Benchstat renders a benchstat-style before/after summary of two
// reports: one section per metric, each row showing old and new values
// with the per-report noise band (±MAD as a percentage of the median,
// time only — allocation counts have no sampling spread) and the
// relative delta, plus a closing geomean row over the scenarios both
// reports measured. It complements the gate table: the table answers
// "did any time regress past its tolerance", this answers "how did the
// run move overall", allocations and bytes included.
func Benchstat(base, cur *Report) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)

	section := func(metric string, get func(*ScenarioResult) (val, mad float64)) {
		fmt.Fprintf(tw, "name\told %s\tnew %s\tdelta\n", metric, metric)
		ratios := make([]float64, 0, len(base.Scenarios))
		for i := range base.Scenarios {
			b := &base.Scenarios[i]
			c := cur.Scenario(b.Name)
			if c == nil {
				continue
			}
			bv, bm := get(b)
			cv, cm := get(c)
			delta := "~"
			if bv > 0 {
				pct := 100 * (cv - bv) / bv
				delta = fmt.Sprintf("%+.2f%%", pct)
				if cv > 0 {
					ratios = append(ratios, cv/bv)
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
				b.Name, benchstatValue(metric, bv, bm), benchstatValue(metric, cv, cm), delta)
		}
		if len(ratios) > 0 {
			logSum := 0.0
			for _, r := range ratios {
				logSum += math.Log(r)
			}
			fmt.Fprintf(tw, "geomean\t\t\t%+.2f%%\n", 100*(math.Exp(logSum/float64(len(ratios)))-1))
		}
	}

	section(MetricTime, func(s *ScenarioResult) (float64, float64) { return s.NsPerOp, s.NsMAD })
	fmt.Fprintln(tw)
	section(MetricAllocs, func(s *ScenarioResult) (float64, float64) { return float64(s.AllocsPerOp), 0 })
	fmt.Fprintln(tw)
	section(MetricBytes, func(s *ScenarioResult) (float64, float64) { return float64(s.BytesPerOp), 0 })
	tw.Flush()
	return sb.String()
}

// benchstatValue renders one metric value; time carries its ±MAD noise
// band, counts are exact.
func benchstatValue(metric string, v, mad float64) string {
	if metric != MetricTime {
		return fmt.Sprintf("%d", int64(v))
	}
	if v <= 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f ±%2.0f%%", v, 100*mad/v)
}
