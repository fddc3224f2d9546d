package core

import (
	"testing"

	"repro/internal/cruise"
)

// TestCheckAllocatesNothing guards SA's hot path: SA validates every
// candidate before evaluating it, so checking a valid configuration —
// through Check or through Validate, which joins Check's problems —
// must not allocate; problems are allocated only on failure.
func TestCheckAllocatesNothing(t *testing.T) {
	sys := cruise.MustSystem()
	opts := DefaultOptions()
	res, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if probs := cfg.Check(opts.Params, sys); probs != nil {
		t.Fatalf("BBC configuration invalid: %v", probs)
	}
	if got := testing.AllocsPerRun(100, func() { _ = cfg.Check(opts.Params, sys) }); got != 0 {
		t.Errorf("Check allocates %v times on the cruise BBC configuration, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = cfg.Validate(opts.Params, sys) }); got != 0 {
		t.Errorf("Validate allocates %v times on the cruise BBC configuration, want 0", got)
	}
}
