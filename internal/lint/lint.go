// Package lint derives queryable facts from a system and its bus
// configuration and evaluates declarative policy packs against them,
// emitting machine-readable reports. It is the validation gate in
// front of the optimisation pipeline: a fleet can vet millions of
// uploaded configurations without running a full optimisation, and
// flexray-serve can reject structurally broken job submissions before
// they reach the queue.
//
// The pipeline has three stages, modelled on extractor → indexer →
// policy designs:
//
//   - Extract builds a Facts value: per-slot occupancy, per-node and
//     bus utilisation, DYN frame facts with their Eq. (3) delay
//     breakdowns, deadline slack and jitter headroom, FrameID sharing,
//     and the configuration's protocol problems from
//     flexray.Config.Check. Extraction is configuration-optional — a
//     bare system yields system-level facts and the
//     configuration/schedule rules report status "skip".
//   - Evaluate runs the selected policy packs over the facts. No
//     silent failures: every rule yields at least one finding with
//     status pass, fail or skip and a human-readable explanation.
//   - The Report is a stable machine-readable artefact (schema
//     flexray-lint/v1) with stable rule IDs and severities, consumed
//     identically by the flexray-lint CLI, POST /v1/lint and the
//     -validate-jobs submission gate.
package lint

import (
	"fmt"
	"sort"
)

// Schema identifies the report wire format; bump only with a
// compatibility note in OPERATIONS.md.
const Schema = "flexray-lint/v1"

// Severity grades a rule: how bad a failure of this rule is.
type Severity string

const (
	// SeverityInfo marks observations worth surfacing but never worth
	// rejecting a configuration over.
	SeverityInfo Severity = "info"
	// SeverityWarning marks headroom and robustness concerns: the
	// configuration works today but is close to an edge.
	SeverityWarning Severity = "warning"
	// SeverityError marks hard failures: the configuration violates
	// the protocol, the model invariants or its deadlines.
	SeverityError Severity = "error"
)

// Rank orders severities; higher is worse. Unknown severities rank 0.
func (s Severity) Rank() int {
	switch s {
	case SeverityInfo:
		return 1
	case SeverityWarning:
		return 2
	case SeverityError:
		return 3
	}
	return 0
}

// ParseSeverity maps the wire name onto a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch Severity(s) {
	case SeverityInfo, SeverityWarning, SeverityError:
		return Severity(s), nil
	}
	return "", fmt.Errorf("lint: unknown severity %q (want info, warning or error)", s)
}

// Status is the outcome of one rule evaluation for one subject.
type Status string

const (
	// StatusPass: the rule was evaluated and holds.
	StatusPass Status = "pass"
	// StatusFail: the rule was evaluated and is violated.
	StatusFail Status = "fail"
	// StatusSkip: the rule could not be evaluated (missing facts);
	// the explanation says why. Skips are explicit so a report never
	// silently omits a rule that was asked for.
	StatusSkip Status = "skip"
)

// Finding is one rule outcome. A rule emits one finding per violated
// subject, or a single pass/skip finding.
type Finding struct {
	// Rule is the stable rule ID (e.g. "CFG008"); IDs never change
	// meaning across versions.
	Rule string `json:"rule"`
	// Pack is the policy pack the rule belongs to.
	Pack string `json:"pack"`
	// Severity is the rule's severity, attached to every finding so a
	// consumer can filter without a rule table.
	Severity Severity `json:"severity"`
	Status   Status   `json:"status"`
	// Subject names what the finding is about (an activity, node,
	// slot or FrameID); empty for whole-system findings.
	Subject string `json:"subject,omitempty"`
	// Explanation says what was checked and — for failures — what was
	// found and why it matters.
	Explanation string `json:"explanation"`
}

// Summary aggregates a report's findings.
type Summary struct {
	// Rules is the number of rules evaluated (incl. skipped).
	Rules int `json:"rules"`
	Pass  int `json:"pass"`
	Fail  int `json:"fail"`
	Skip  int `json:"skip"`
	// Errors/Warnings/Infos count the *failing* findings by severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// Report is the machine-readable lint artefact.
type Report struct {
	Schema string `json:"schema"`
	// System is the linted system's name.
	System string `json:"system"`
	// Packs lists the evaluated policy packs.
	Packs []string `json:"packs"`
	// Configured reports whether a bus configuration was supplied;
	// without one the configuration and schedule rules skip.
	Configured bool `json:"configured"`
	// Scheduled reports whether schedule and analysis facts were
	// extracted (a schedule table was built and analysed).
	Scheduled bool      `json:"scheduled"`
	Findings  []Finding `json:"findings"`
	Summary   Summary   `json:"summary"`
	// MaxSeverity is the worst severity among failing findings; empty
	// when nothing failed.
	MaxSeverity Severity `json:"max_severity,omitempty"`
}

// Failed reports whether any failing finding reaches severity min.
func (r *Report) Failed(min Severity) bool {
	return r.MaxSeverity.Rank() >= min.Rank() && r.MaxSeverity != ""
}

// FailingRules returns the sorted, de-duplicated rule IDs with at
// least one failing finding at severity min or worse.
func (r *Report) FailingRules(min Severity) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range r.Findings {
		if f.Status == StatusFail && f.Severity.Rank() >= min.Rank() && !seen[f.Rule] {
			seen[f.Rule] = true
			out = append(out, f.Rule)
		}
	}
	sort.Strings(out)
	return out
}

// summarize recomputes the Summary and MaxSeverity from the findings.
func (r *Report) summarize(rules int) {
	s := Summary{Rules: rules}
	max := Severity("")
	for _, f := range r.Findings {
		switch f.Status {
		case StatusPass:
			s.Pass++
		case StatusSkip:
			s.Skip++
		case StatusFail:
			s.Fail++
			switch f.Severity {
			case SeverityError:
				s.Errors++
			case SeverityWarning:
				s.Warnings++
			default:
				s.Infos++
			}
			if f.Severity.Rank() > max.Rank() {
				max = f.Severity
			}
		}
	}
	r.Summary = s
	r.MaxSeverity = max
}
