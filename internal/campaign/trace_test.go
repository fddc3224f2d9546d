package campaign

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/obs"
)

// TestPortfolioConvergenceEvents pins the convergence events of a
// traced cruise portfolio at both optimiser detail levels: every
// opt.<ALG> span carries "best" events at rising evaluation counts with
// strictly falling costs, the last of which is the span's result cost,
// and the envelope lengths match the measured 2/4/5/37. Phase spans
// carry no events. Under -race it also covers the four optimiser
// goroutines recording events concurrently.
func TestPortfolioConvergenceEvents(t *testing.T) {
	sys, err := cruise.System()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ events, evals int64 }{
		"opt.BBC":    {2, 64},
		"opt.OBC-CF": {4, 196},
		"opt.OBC-EE": {5, 576},
		"opt.SA":     {37, 2001},
	}
	for _, detail := range []obs.Granularity{obs.GranRun, obs.GranPhase} {
		store := obs.NewSpanStore(obs.SpanStoreOptions{})
		tracer := obs.NewTracer(obs.TracerOptions{Store: store, SampleRatio: 1, Detail: detail})
		ctx, root := tracer.StartRoot(context.Background(), "test", obs.SpanContext{})
		if _, err := Portfolio(ctx, sys, core.DefaultOptions(), EngineOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		root.End()
		spans, _, _ := store.Trace(root.Context().TraceID)

		seen, phases := 0, 0
		for _, sd := range spans {
			if sd.Name == "sa.anneal" {
				phases++
			}
			w, isOpt := want[sd.Name]
			if !isOpt {
				if len(sd.Events) != 0 {
					t.Errorf("detail %d: %s span carries %d events", detail, sd.Name, len(sd.Events))
				}
				continue
			}
			seen++
			if got := obs.AttrValue(sd.Attrs, "evaluations"); got != w.evals {
				t.Errorf("detail %d: %s evaluations %v, want %d", detail, sd.Name, got, w.evals)
			}
			if int64(len(sd.Events)) != w.events || sd.DroppedEvents != 0 {
				t.Errorf("detail %d: %s has %d events (%d dropped), want %d",
					detail, sd.Name, len(sd.Events), sd.DroppedEvents, w.events)
			}
			prevEvals, prevCost := int64(0), math.Inf(1)
			for i, ev := range sd.Events {
				evals, _ := obs.AttrValue(ev.Attrs, "evaluations").(int64)
				cost, _ := obs.AttrValue(ev.Attrs, "cost").(float64)
				if ev.Name != "best" || evals <= prevEvals || evals > w.evals || cost >= prevCost {
					t.Errorf("detail %d: %s event %d %s at evaluation %d cost %v, after %d/%v",
						detail, sd.Name, i, ev.Name, evals, cost, prevEvals, prevCost)
				}
				if _, ok := obs.AttrValue(ev.Attrs, "elapsed_us").(int64); !ok {
					t.Errorf("detail %d: %s event %d lacks elapsed_us", detail, sd.Name, i)
				}
				// SA stamps the annealing temperature on every
				// candidate it proposed; the starting point has none.
				_, hasTemp := obs.AttrValue(ev.Attrs, "temperature").(float64)
				if wantTemp := sd.Name == "opt.SA" && i > 0; hasTemp != wantTemp {
					t.Errorf("detail %d: %s event %d temperature present=%v, want %v",
						detail, sd.Name, i, hasTemp, wantTemp)
				}
				prevEvals, prevCost = evals, cost
			}
			if got := obs.AttrValue(sd.Attrs, "cost"); got != prevCost {
				t.Errorf("detail %d: %s last event cost %v, span cost %v", detail, sd.Name, prevCost, got)
			}
		}
		if seen != len(want) {
			t.Errorf("detail %d: %d opt.* spans, want %d", detail, seen, len(want))
		}
		if (detail == obs.GranPhase) != (phases == 1) {
			t.Errorf("detail %d: %d sa.anneal spans", detail, phases)
		}
	}
}
