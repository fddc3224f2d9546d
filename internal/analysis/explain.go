package analysis

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/units"
)

// DYNDelay decomposes the worst-case response time of a DYN message
// into the terms of Eq. (2)-(3):
//
//	Rm = Jm + [ σm + BusCyclesm·gdCycle + w'm ] + Cm
//
// The breakdown explains *why* a message is late — inherited jitter,
// a missed slot in the arrival cycle, cycles filled by interference, or
// in-cycle delay before its slot — which is what a designer needs when
// choosing between a larger dynamic segment, a smaller FrameID or a
// higher priority.
type DYNDelay struct {
	Msg model.ActID
	// Jitter is Jm: the worst-case completion of the sender task.
	Jitter units.Duration
	// Sigma is σm: the delay in the arrival cycle when the message
	// just misses its slot.
	Sigma units.Duration
	// BusCycles is BusCyclesm: full cycles filled by interference,
	// one per hp(m) instance plus the cycles lf(m) extras fill.
	BusCycles int64
	// CycleLen is gdCycle.
	CycleLen units.Duration
	// WPrime is w'm: the delay inside the final cycle until
	// transmission starts.
	WPrime units.Duration
	// Comm is Cm, the transmission time.
	Comm units.Duration
	// Response is the total: Jitter+Sigma+BusCycles*CycleLen+WPrime+Comm,
	// or the divergence bound itself (without jitter or Comm) for a
	// message whose window saturated — exactly the response Run
	// reports.
	Response units.Duration
	// Saturated reports that the fixpoint hit the divergence cap (or
	// its iteration cap) and the breakdown describes the last iterate,
	// not a converged worst case.
	Saturated bool
}

// String renders the decomposition compactly.
func (d DYNDelay) String() string {
	sat := ""
	if d.Saturated {
		sat = " (saturated)"
	}
	return fmt.Sprintf("R=%v = J %v + σ %v + %d×%v + w' %v + C %v%s",
		d.Response, d.Jitter, d.Sigma, d.BusCycles, d.CycleLen, d.WPrime, d.Comm, sat)
}

// ExplainDYN returns the Eq. (3) breakdown of one DYN message under
// the analyzer's last Run: it recomputes the message's window with the
// jitters that Run converged to, so its Response is the one Run
// reported. Call it after Run and before the next Reset. The second
// return value is false if the activity is not a DYN message or has no
// FrameID.
func (a *Analyzer) ExplainDYN(m model.ActID) (DYNDelay, bool) {
	act := a.sys.App.Act(m)
	if !act.IsMessage() || act.Class != model.DYN {
		return DYNDelay{}, false
	}
	if a.fids[a.dynIdx[m]] < 0 || a.cfg.NumMinislots <= 0 {
		return DYNDelay{}, false
	}
	w := a.dynWindow(act)
	d := DYNDelay{
		Msg: m, Jitter: a.j[m],
		Sigma: w.sigma, BusCycles: w.filled, CycleLen: w.cycle,
		WPrime: w.wPrime, Comm: act.C,
		Saturated: w.sat || w.capped,
	}
	if w.sat {
		d.Response = a.capD[m]
	} else {
		d.Response = units.SatAdd(d.Jitter, units.SatAdd(w.w, act.C))
	}
	return d, true
}

// ExplainAll returns the breakdowns of every DYN message under the last
// Run, in FrameID order.
func (a *Analyzer) ExplainAll() []DYNDelay {
	msgs := append([]model.ActID(nil), a.dynMsgs...)
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0; j-- {
			if a.cfg.FrameID[msgs[j]] < a.cfg.FrameID[msgs[j-1]] {
				msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
			} else {
				break
			}
		}
	}
	var out []DYNDelay
	for _, m := range msgs {
		if d, ok := a.ExplainDYN(m); ok {
			out = append(out, d)
		}
	}
	return out
}
