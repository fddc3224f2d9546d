package lint

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/flexray/flexraytest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/synth"
)

// loadSystem reads a testdata system fixture.
func loadSystem(t *testing.T, name string) *model.System {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	sys, err := model.ReadJSON(f)
	if err != nil {
		t.Fatalf("parse fixture %s: %v", name, err)
	}
	return sys
}

// loadConfig reads a testdata config fixture against sys.
func loadConfig(t *testing.T, sys *model.System, name string) *flexray.Config {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	cfg, err := flexray.ReadJSON(f, sys)
	if err != nil {
		t.Fatalf("parse fixture %s: %v", name, err)
	}
	return cfg
}

func TestRunValidSystem(t *testing.T) {
	sys := loadSystem(t, "valid_sys.json")
	cfg := loadConfig(t, sys, "valid_cfg.json")
	rep, err := Run(sys, cfg, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Configured || !rep.Scheduled {
		t.Fatalf("configured=%v scheduled=%v, want both true", rep.Configured, rep.Scheduled)
	}
	if rep.Summary.Errors != 0 {
		t.Fatalf("valid system produced %d error failures: %+v", rep.Summary.Errors, rep.FailingRules(SeverityError))
	}
	if rep.Summary.Skip != 0 {
		t.Fatalf("full extraction still skipped %d rules", rep.Summary.Skip)
	}
	// Every rule contributes at least one finding — no silent omissions.
	seen := map[string]bool{}
	for _, f := range rep.Findings {
		seen[f.Rule] = true
		if f.Explanation == "" {
			t.Errorf("rule %s: empty explanation", f.Rule)
		}
	}
	for _, r := range Rules() {
		if !seen[r.ID] {
			t.Errorf("rule %s emitted no finding", r.ID)
		}
	}
	if rep.Summary.Rules != len(Rules()) {
		t.Errorf("summary.rules = %d, want %d", rep.Summary.Rules, len(Rules()))
	}
}

func TestRunInvalidSystem(t *testing.T) {
	sys := loadSystem(t, "invalid_sys.json")
	rep, err := Run(sys, nil, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Configured || rep.Scheduled {
		t.Fatalf("configured=%v scheduled=%v, want both false", rep.Configured, rep.Scheduled)
	}
	if !rep.Failed(SeverityError) {
		t.Fatalf("overloaded system linted clean: %+v", rep.Summary)
	}
	want := []string{"SYS002", "SYS003", "SYS004"}
	got := rep.FailingRules(SeverityError)
	if len(got) != len(want) {
		t.Fatalf("failing rules = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("failing rules = %v, want %v", got, want)
		}
	}
	// Config-dependent rules must skip, not vanish.
	skips := 0
	for _, f := range rep.Findings {
		if f.Status == StatusSkip {
			skips++
			if f.Explanation == "" {
				t.Errorf("rule %s: skip without explanation", f.Rule)
			}
		}
	}
	if skips == 0 {
		t.Error("no skip findings for a config-less run")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	sys := loadSystem(t, "valid_sys.json")
	cfg := loadConfig(t, sys, "invalid_cfg.json")
	rep, err := Run(sys, cfg, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Configured || rep.Scheduled {
		t.Fatalf("configured=%v scheduled=%v, want true/false", rep.Configured, rep.Scheduled)
	}
	got := rep.FailingRules(SeverityError)
	want := map[string]bool{"CFG005": true, "CFG006": true, "CFG008": true, "CFG010": true}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected failing rule %s", id)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("rule %s did not fail", id)
	}
}

func TestScheduleDisabled(t *testing.T) {
	sys := loadSystem(t, "valid_sys.json")
	cfg := loadConfig(t, sys, "valid_cfg.json")
	opts := DefaultOptions()
	opts.Schedule = false
	rep, err := Run(sys, cfg, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Scheduled {
		t.Fatal("scheduled=true with Schedule disabled")
	}
	if rep.Failed(SeverityError) {
		t.Fatalf("valid system failed the cheap pass: %v", rep.FailingRules(SeverityError))
	}
	for _, f := range rep.Findings {
		if (f.Rule == "SCH002" || f.Rule == "TIM001") && f.Status != StatusSkip {
			t.Errorf("rule %s status %s, want skip", f.Rule, f.Status)
		}
	}
}

// TestWithDefaultsKeepsAnalysisOptions: filling in defaults keeps the
// analysis settings a caller chose.
func TestWithDefaultsKeepsAnalysisOptions(t *testing.T) {
	var o Options
	o.Sched.Analysis.DivergenceFactor = 2
	if got := o.withDefaults().Sched.Analysis.DivergenceFactor; got != 2 {
		t.Fatalf("DivergenceFactor = %d after withDefaults, want 2", got)
	}
}

func TestPackSelection(t *testing.T) {
	sys := loadSystem(t, "invalid_sys.json")
	rep, err := Run(sys, nil, DefaultOptions(), PackHeadroom)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range rep.Findings {
		if f.Pack != PackHeadroom {
			t.Errorf("finding %s from pack %s leaked into a headroom-only run", f.Rule, f.Pack)
		}
	}
	// The structure errors must not appear in a headroom-only report.
	if rep.Failed(SeverityError) {
		t.Errorf("headroom-only run reports errors: %v", rep.FailingRules(SeverityError))
	}
	if _, err := Run(sys, nil, DefaultOptions(), "nonsense"); err == nil {
		t.Fatal("unknown pack accepted")
	}
}

func TestSeverity(t *testing.T) {
	if !(SeverityError.Rank() > SeverityWarning.Rank() && SeverityWarning.Rank() > SeverityInfo.Rank()) {
		t.Fatal("severity ranks out of order")
	}
	if _, err := ParseSeverity("warning"); err != nil {
		t.Fatalf("ParseSeverity(warning): %v", err)
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Fatal("ParseSeverity accepted an unknown severity")
	}
}

func TestRulesStable(t *testing.T) {
	rules := Rules()
	seen := map[string]bool{}
	packs := map[string]bool{}
	for _, p := range Packs() {
		packs[p] = true
	}
	for i, r := range rules {
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
		if i > 0 && rules[i-1].ID >= r.ID {
			t.Errorf("rules out of ID order at %s", r.ID)
		}
		if !packs[r.Pack] {
			t.Errorf("rule %s in unknown pack %q", r.ID, r.Pack)
		}
		if r.Title == "" {
			t.Errorf("rule %s has no title", r.ID)
		}
		if r.Severity.Rank() == 0 {
			t.Errorf("rule %s has invalid severity %q", r.ID, r.Severity)
		}
	}
}

func TestMetrics(t *testing.T) {
	var nilM *Metrics
	nilM.Report("http", &Report{}, time.Millisecond) // must not panic
	nilM.RejectedSubmission()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sys := loadSystem(t, "invalid_sys.json")
	rep, err := Run(sys, nil, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m.Report("gate", rep, 2*time.Millisecond)
	m.RejectedSubmission()
	if v := m.reports["gate"].Value(); v != 1 {
		t.Errorf("reports{gate} = %v, want 1", v)
	}
	if v := m.findings[StatusFail].Value(); v != float64(rep.Summary.Fail) {
		t.Errorf("findings{fail} = %v, want %d", v, rep.Summary.Fail)
	}
	if v := m.failures[SeverityError].Value(); v != float64(rep.Summary.Errors) {
		t.Errorf("failures{error} = %v, want %d", v, rep.Summary.Errors)
	}
	if v := m.rejected.Value(); v != 1 {
		t.Errorf("rejected = %v, want 1", v)
	}
}

// TestDYNDelayExplainsReportedResponse requires every DYN delay fact to
// break down the response the report's analysis produced, on cruise
// and on a synthesised system, each under its BBC configuration and a
// few perturbations of it (saturated and FrameID-less messages
// included).
func TestDYNDelayExplainsReportedResponse(t *testing.T) {
	syn, err := synth.Generate(synth.DefaultParams(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	copts := core.DefaultOptions()
	copts.DYNGridCap = 8
	for _, sys := range []*model.System{cruise.MustSystem(), syn} {
		bbc, err := core.BBC(sys, copts)
		if err != nil {
			t.Fatalf("%s: BBC: %v", sys.Name, err)
		}
		dyn := sys.App.Messages(int(model.DYN))
		rng := rand.New(rand.NewSource(7))
		explained := 0
		for trial := 0; trial < 8; trial++ {
			cfg := bbc.Config
			if trial > 0 {
				cfg = flexraytest.Perturb(rng, bbc.Config, dyn)
			}
			f := Extract(sys, cfg, DefaultOptions())
			if f.Res == nil {
				continue
			}
			for _, d := range f.DYN {
				if d.Delay == nil {
					continue
				}
				explained++
				if r, _ := f.Res.Response(d.Msg); d.Delay.Response != r {
					t.Errorf("%s trial %d: %s delay response %v, analysed %v",
						sys.Name, trial, d.Name, d.Delay.Response, r)
				}
			}
		}
		if explained == 0 {
			t.Errorf("%s: no DYN delay fact was extracted", sys.Name)
		}
	}
}

// TestSlackFactsCarryAnalyzerJitter pins the jitter headroom facts to
// the analysis: on cruise under its BBC configuration, where tasks and
// DYN messages inherit release jitter along their precedence chains,
// every SlackFact's Jitter is the analyzer's Jitter for that activity
// and JitterFrac is its share of the deadline. HDR004 must then fail
// for the jittered activities once JitterFracWarn is set below their
// share, and only for them.
func TestSlackFactsCarryAnalyzerJitter(t *testing.T) {
	sys := cruise.MustSystem()
	bbc, err := core.BBC(sys, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	f := Extract(sys, bbc.Config, opts)
	if f.Res == nil {
		t.Fatalf("no analysis facts: %v %s", f.BuildErr, f.ScheduleSkip)
	}
	table, err := sched.BuildTable(sys, bbc.Config, opts.Sched)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.New(sys, bbc.Config, table, opts.Sched.Analysis)
	an.Run()

	minFrac := math.Inf(1)
	jittered := map[string]bool{}
	for _, s := range f.Slack {
		if want := an.Jitter(s.Act); s.Jitter != want {
			t.Errorf("%s: SlackFact.Jitter %v, analyzer %v", s.Name, s.Jitter, want)
		}
		if s.Deadline > 0 {
			if want := float64(s.Jitter) / float64(s.Deadline); s.JitterFrac != want {
				t.Errorf("%s: JitterFrac %v, want %v", s.Name, s.JitterFrac, want)
			}
		}
		if s.Jitter > 0 && s.Deadline > 0 {
			jittered[s.Name] = true
			minFrac = math.Min(minFrac, s.JitterFrac)
		}
	}
	if len(jittered) == 0 {
		t.Fatal("no activity inherits release jitter; the test needs a precedence chain")
	}

	opts.Thresholds.JitterFracWarn = minFrac / 2
	rep, err := Run(sys, bbc.Config, opts, PackHeadroom)
	if err != nil {
		t.Fatal(err)
	}
	failed := map[string]bool{}
	for _, fd := range rep.Findings {
		if fd.Rule == "HDR004" && fd.Status == StatusFail {
			failed[fd.Subject] = true
		}
	}
	if !reflect.DeepEqual(failed, jittered) {
		t.Errorf("HDR004 failed for %v, want exactly the jittered activities %v", failed, jittered)
	}
}
