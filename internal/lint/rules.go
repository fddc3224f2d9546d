package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/flexray"
	"repro/internal/model"
)

// Policy pack names. A pack is the unit of selection: the CLI's
// -packs flag, the /v1/lint "packs" field and the submission gate all
// pick rules by pack.
const (
	// PackStructure holds the certification-style structural rules:
	// model invariants (SYS*) and FlexRay protocol limits (CFG*).
	PackStructure = "structure"
	// PackSchedule holds the schedule-table rules (SCH*): the static
	// schedule is constructible and internally consistent.
	PackSchedule = "schedule"
	// PackTiming holds the holistic-analysis rules (TIM*): deadlines
	// met, fixpoint converged, no diverging DYN bound.
	PackTiming = "timing"
	// PackHeadroom holds the robustness rules (HDR*): utilisation,
	// slack and jitter headroom thresholds.
	PackHeadroom = "headroom"
)

// Packs lists every policy pack in evaluation order.
func Packs() []string {
	return []string{PackStructure, PackSchedule, PackTiming, PackHeadroom}
}

// needs declares which fact groups a rule requires; the engine skips
// (never silently drops) rules whose facts are absent.
type needs uint8

const (
	needsConfig needs = 1 << iota
	needsSchedule
	needsAnalysis
)

// Rule is one declarative policy: a stable ID, a severity, the facts
// it needs and a check over them. Checks return one finding per
// violated subject plus the explanation to attach if nothing failed.
type Rule struct {
	ID       string
	Pack     string
	Severity Severity
	// Title is the one-line description used by reference docs and
	// human-readable output.
	Title string
	needs needs
	check func(f *Facts, th Thresholds) (fails []Finding, pass string)
}

// Rules returns every rule of every pack, in stable ID order.
func Rules() []Rule {
	all := append(append(append(structureRules(), scheduleRules()...), timingRules()...), headroomRules()...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// RulesOf selects the rules of the named packs (every pack when none
// are named), rejecting unknown pack names.
func RulesOf(packs ...string) ([]Rule, []string, error) {
	if len(packs) == 0 {
		packs = Packs()
	}
	known := map[string]bool{}
	for _, p := range Packs() {
		known[p] = true
	}
	want := map[string]bool{}
	var names []string
	for _, p := range packs {
		if !known[p] {
			return nil, nil, fmt.Errorf("lint: unknown policy pack %q (have %s)", p, strings.Join(Packs(), ", "))
		}
		if !want[p] {
			want[p] = true
			names = append(names, p)
		}
	}
	var out []Rule
	for _, r := range Rules() {
		if want[r.Pack] {
			out = append(out, r)
		}
	}
	return out, names, nil
}

// fail builds a failing finding; the engine stamps rule identity.
func fail(subject, format string, args ...any) Finding {
	return Finding{Status: StatusFail, Subject: subject, Explanation: fmt.Sprintf(format, args...)}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// ---------------------------------------------------------------- structure

func structureRules() []Rule {
	return []Rule{
		{
			ID: "SYS001", Pack: PackStructure, Severity: SeverityError,
			Title: "system satisfies the structural model invariants",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				if f.SysErr == nil {
					return nil, fmt.Sprintf("structural invariants hold (%d activities in %d graphs on %d nodes)",
						len(f.Sys.App.Acts), len(f.Sys.App.Graphs), f.Sys.Platform.NumNodes)
				}
				var fails []Finding
				for _, line := range strings.Split(f.SysErr.Error(), "\n") {
					fails = append(fails, fail("", "%s", line))
				}
				return fails, ""
			},
		},
		{
			ID: "SYS002", Pack: PackStructure, Severity: SeverityError,
			Title: "every node's CPU utilisation stays below 1",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				var fails []Finding
				peak := 0.0
				for n, u := range f.NodeUtil {
					if u > peak {
						peak = u
					}
					if u >= 1 {
						fails = append(fails, fail(f.Sys.Platform.NodeName(model.NodeID(n)),
							"CPU utilisation %s >= 100%%: the task set can never be scheduled on this node", pct(u)))
					}
				}
				return fails, fmt.Sprintf("peak node CPU utilisation %s", pct(peak))
			},
		},
		{
			ID: "SYS003", Pack: PackStructure, Severity: SeverityError,
			Title: "total bus utilisation stays below 1",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				if f.BusUtil >= 1 {
					return []Finding{fail("bus",
						"bus utilisation %s >= 100%%: the message set exceeds the channel capacity at any configuration", pct(f.BusUtil))}, ""
				}
				return nil, fmt.Sprintf("bus utilisation %s", pct(f.BusUtil))
			},
		},
		{
			ID: "SYS004", Pack: PackStructure, Severity: SeverityError,
			Title: "no activity's execution time exceeds its deadline",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				var fails []Finding
				n := 0
				for i := range f.Sys.App.Acts {
					a := &f.Sys.App.Acts[i]
					d := f.Sys.App.Deadline(a.ID)
					if d <= 0 {
						continue
					}
					n++
					if a.C > d {
						fails = append(fails, fail(a.Name,
							"%s %v exceeds the effective deadline %v: unschedulable in isolation",
							map[bool]string{true: "WCET", false: "communication time"}[a.IsTask()], a.C, d))
					}
				}
				return fails, fmt.Sprintf("all %d deadlined activities fit their deadlines in isolation", n)
			},
		},
		protocolRule("CFG001", "static segment within protocol limits", flexray.CheckStaticSegment, func(f *Facts) string {
			return fmt.Sprintf("%d static slots of %v (ST segment %v)", f.Cfg.NumStaticSlots, f.Cfg.StaticSlotLen, f.Cfg.STBus())
		}),
		protocolRule("CFG002", "dynamic segment within protocol limits", flexray.CheckDynamicSegment, func(f *Facts) string {
			return fmt.Sprintf("%d minislots of %v (DYN segment %v)", f.Cfg.NumMinislots, f.Cfg.MinislotLen, f.Cfg.DYNBus())
		}),
		protocolRule("CFG003", "bus cycle below the 16 ms protocol limit", flexray.CheckCycle, func(f *Facts) string {
			return fmt.Sprintf("gdCycle %v", f.Cfg.Cycle())
		}),
		protocolRule("CFG004", "static slot ownership table is consistent", flexray.CheckSlotOwners, func(f *Facts) string {
			return fmt.Sprintf("%d slot owners, all valid", len(f.Cfg.StaticSlotOwner))
		}),
		protocolRule("CFG005", "every ST-sending node owns a static slot", flexray.CheckSTSenders, func(f *Facts) string {
			return fmt.Sprintf("all %d ST-sending nodes own static slots", len(f.Sys.App.STSenderNodes()))
		}),
		protocolRule("CFG006", "the largest ST frame fits the static slot", flexray.CheckSTFrameFits, func(f *Facts) string {
			maxST := f.Sys.App.MaxC(func(a *model.Activity) bool { return a.IsMessage() && a.Class == model.ST })
			return fmt.Sprintf("largest ST message %v fits gdStaticSlot %v", maxST, f.Cfg.StaticSlotLen)
		}),
		protocolRule("CFG007", "FrameID assignment is total, positive and DYN-only", flexray.CheckFrameIDs, func(f *Facts) string {
			return fmt.Sprintf("all %d DYN messages carry valid FrameIDs", len(f.DYN))
		}),
		protocolRule("CFG008", "no FrameID is shared across nodes", flexray.CheckFrameIDSharing, func(f *Facts) string {
			return fmt.Sprintf("%d FrameIDs, none shared across nodes", len(f.Frames))
		}),
		{
			ID: "CFG009", Pack: PackStructure, Severity: SeverityWarning, needs: needsConfig,
			Title: "FrameID sharers multiplex by distinct priorities",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				var fails []Finding
				shared := 0
				for _, fr := range f.Frames {
					if len(fr.Msgs) > 1 && len(fr.Nodes) == 1 {
						shared++
					}
					if fr.SamePriority {
						fails = append(fails, fail(fmt.Sprintf("FrameID %d", fr.FrameID),
							"messages sharing the slot have equal priorities: the multiplexing order is undefined"))
					}
				}
				return fails, fmt.Sprintf("%d slot-multiplexed FrameIDs, all priority-ordered", shared)
			},
		},
		protocolRule("CFG010", "every DYN frame is reachable within the dynamic segment", flexray.CheckReachable, func(f *Facts) string {
			return fmt.Sprintf("all %d DYN frames reachable", len(f.DYN))
		}),
	}
}

// protocolRule is a CFG rule whose failures are the flexray checker's
// problems of one kind; pass explains a configuration without any.
func protocolRule(id, title string, kind flexray.CheckKind, pass func(*Facts) string) Rule {
	return Rule{
		ID: id, Pack: PackStructure, Severity: SeverityError, needs: needsConfig, Title: title,
		check: func(f *Facts, _ Thresholds) ([]Finding, string) {
			var fails []Finding
			for _, p := range f.Problems {
				if p.Kind == kind {
					fails = append(fails, fail(p.Subject, "%s", p.Message))
				}
			}
			return fails, pass(f)
		},
	}
}

// ---------------------------------------------------------------- schedule

func scheduleRules() []Rule {
	return []Rule{
		{
			ID: "SCH001", Pack: PackSchedule, Severity: SeverityError, needs: needsConfig,
			Title: "a static schedule table is constructible",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				switch {
				case f.BuildErr != nil:
					return []Finding{fail("", "schedule construction failed: %v", f.BuildErr)}, ""
				case f.Table != nil:
					return nil, fmt.Sprintf("schedule table built: %d task placements, %d frame placements over a %v hyper-period",
						len(f.Table.Tasks), len(f.Table.Msgs), f.Table.Horizon)
				default:
					return []Finding{{Status: StatusSkip, Explanation: f.ScheduleSkip}}, ""
				}
			},
		},
		{
			ID: "SCH002", Pack: PackSchedule, Severity: SeverityError, needs: needsSchedule,
			Title: "no static slot instance is packed beyond the slot length",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, s := range f.Slots {
					if s.Fill > 1 {
						fails = append(fails, fail(fmt.Sprintf("cycle %d slot %d", s.Cycle, s.Slot),
							"packed payload %v exceeds gdStaticSlot %v (%s full)", s.Payload, f.Cfg.StaticSlotLen, pct(s.Fill)))
					}
				}
				return fails, fmt.Sprintf("%d occupied slot instances, all within the slot length", len(f.Slots))
			},
		},
		{
			ID: "SCH003", Pack: PackSchedule, Severity: SeverityWarning, needs: needsSchedule,
			Title: "nodes running FPS tasks keep capacity outside the static schedule",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				fps := map[model.NodeID]bool{}
				for _, id := range f.Sys.App.Tasks(int(model.FPS)) {
					fps[f.Sys.App.Act(id).Node] = true
				}
				var fails []Finding
				checked := 0
				for n := 0; n < f.Sys.Platform.NumNodes; n++ {
					if !fps[model.NodeID(n)] || f.Table.Horizon <= 0 {
						continue
					}
					checked++
					var busy float64
					for _, iv := range f.Table.Busy(model.NodeID(n)) {
						busy += float64(iv.Len())
					}
					if frac := busy / float64(f.Table.Horizon); frac >= 1 {
						fails = append(fails, fail(f.Sys.Platform.NodeName(model.NodeID(n)),
							"the static schedule occupies %s of the node: its FPS tasks can never run", pct(frac)))
					}
				}
				return fails, fmt.Sprintf("%d FPS-hosting nodes keep static-schedule slack", checked)
			},
		},
	}
}

// ---------------------------------------------------------------- timing

func timingRules() []Rule {
	return []Rule{
		{
			ID: "TIM001", Pack: PackTiming, Severity: SeverityError, needs: needsAnalysis,
			Title: "every activity meets its deadline under the holistic analysis",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, s := range f.Slack {
					if !s.Met {
						fails = append(fails, fail(s.Name,
							"worst-case response %v exceeds deadline %v (slack %v)", s.Response, s.Deadline, s.Slack))
					}
				}
				return fails, fmt.Sprintf("all %d analysed activities meet their deadlines (cost %.3f)", len(f.Slack), f.Res.Cost)
			},
		},
		{
			ID: "TIM002", Pack: PackTiming, Severity: SeverityError, needs: needsAnalysis,
			Title: "the jitter-propagation fixpoint converged",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				if !f.Res.Converged {
					return []Finding{fail("", "the analysis fixpoint hit its iteration bound: response times are saturated upper bounds, not converged worst cases")}, ""
				}
				return nil, "analysis fixpoint converged"
			},
		},
		{
			ID: "TIM003", Pack: PackTiming, Severity: SeverityError, needs: needsAnalysis,
			Title: "no DYN response-time bound diverged",
			check: func(f *Facts, _ Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, d := range f.DYN {
					if d.Delay != nil && d.Delay.Saturated {
						fails = append(fails, fail(d.Name,
							"the Eq. (3) bound diverged (interference fills every cycle); last iterate: %s", d.Delay))
					}
				}
				return fails, fmt.Sprintf("all %d DYN bounds converged", len(f.DYN))
			},
		},
	}
}

// ---------------------------------------------------------------- headroom

func headroomRules() []Rule {
	return []Rule{
		{
			ID: "HDR001", Pack: PackHeadroom, Severity: SeverityWarning,
			Title: "node CPU utilisation below the warning threshold",
			check: func(f *Facts, th Thresholds) ([]Finding, string) {
				var fails []Finding
				for n, u := range f.NodeUtil {
					if u >= 1 {
						continue // SYS002's hard failure; do not double-report
					}
					if u > th.NodeUtilWarn {
						fails = append(fails, fail(f.Sys.Platform.NodeName(model.NodeID(n)),
							"CPU utilisation %s exceeds the %s headroom threshold", pct(u), pct(th.NodeUtilWarn)))
					}
				}
				return fails, fmt.Sprintf("all nodes below %s CPU utilisation", pct(th.NodeUtilWarn))
			},
		},
		{
			ID: "HDR002", Pack: PackHeadroom, Severity: SeverityWarning,
			Title: "bus utilisation below the warning threshold",
			check: func(f *Facts, th Thresholds) ([]Finding, string) {
				if f.BusUtil < 1 && f.BusUtil > th.BusUtilWarn {
					return []Finding{fail("bus", "bus utilisation %s exceeds the %s headroom threshold", pct(f.BusUtil), pct(th.BusUtilWarn))}, ""
				}
				return nil, fmt.Sprintf("bus utilisation %s below the %s threshold", pct(f.BusUtil), pct(th.BusUtilWarn))
			},
		},
		{
			ID: "HDR003", Pack: PackHeadroom, Severity: SeverityWarning, needs: needsAnalysis,
			Title: "deadline slack above the warning threshold",
			check: func(f *Facts, th Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, s := range f.Slack {
					if s.Met && s.Deadline > 0 && s.SlackFrac < th.SlackFracWarn {
						fails = append(fails, fail(s.Name,
							"deadline slack %v is only %s of the %v deadline (threshold %s)",
							s.Slack, pct(s.SlackFrac), s.Deadline, pct(th.SlackFracWarn)))
					}
				}
				return fails, fmt.Sprintf("all met activities keep >= %s deadline slack", pct(th.SlackFracWarn))
			},
		},
		{
			ID: "HDR004", Pack: PackHeadroom, Severity: SeverityWarning, needs: needsAnalysis,
			Title: "inherited release jitter below the warning threshold",
			check: func(f *Facts, th Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, s := range f.Slack {
					if s.Deadline > 0 && s.JitterFrac > th.JitterFracWarn {
						fails = append(fails, fail(s.Name,
							"release jitter %v is %s of the %v deadline (threshold %s)",
							s.Jitter, pct(s.JitterFrac), s.Deadline, pct(th.JitterFracWarn)))
					}
				}
				return fails, fmt.Sprintf("all activities keep jitter below %s of their deadline", pct(th.JitterFracWarn))
			},
		},
		{
			ID: "HDR005", Pack: PackHeadroom, Severity: SeverityWarning, needs: needsSchedule,
			Title: "static slot packing below the warning threshold",
			check: func(f *Facts, th Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, s := range f.Slots {
					if s.Fill <= 1 && s.Fill > th.SlotFillWarn {
						fails = append(fails, fail(fmt.Sprintf("cycle %d slot %d", s.Cycle, s.Slot),
							"slot is %s full (threshold %s): no room for frame growth", pct(s.Fill), pct(th.SlotFillWarn)))
					}
				}
				return fails, fmt.Sprintf("%d occupied slot instances below %s fill", len(f.Slots), pct(th.SlotFillWarn))
			},
		},
		{
			ID: "HDR006", Pack: PackHeadroom, Severity: SeverityWarning, needs: needsAnalysis,
			Title: "DYN worst cases cross few fully filled bus cycles",
			check: func(f *Facts, th Thresholds) ([]Finding, string) {
				var fails []Finding
				for _, d := range f.DYN {
					if d.Delay != nil && !d.Delay.Saturated && d.Delay.BusCycles > th.DYNBusCyclesWarn {
						fails = append(fails, fail(d.Name,
							"worst case waits through %d fully filled bus cycles (threshold %d): response is interference-dominated",
							d.Delay.BusCycles, th.DYNBusCyclesWarn))
					}
				}
				return fails, fmt.Sprintf("all DYN worst cases cross <= %d filled cycles", th.DYNBusCyclesWarn)
			},
		},
	}
}
