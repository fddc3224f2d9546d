package core

import (
	"testing"

	"repro/internal/cruise"
)

// TestValidateAllocsOnSAPath guards SA's hot path: SA validates every
// neighbour before evaluating it, so validating a valid configuration
// must stay a small fixed cost: two allocations (the slot-owner table
// and the DYN frame list); problems are allocated only on failure.
func TestValidateAllocsOnSAPath(t *testing.T) {
	sys := cruise.MustSystem()
	opts := DefaultOptions()
	res, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if err := cfg.Validate(opts.Params, sys); err != nil {
		t.Fatalf("BBC configuration invalid: %v", err)
	}
	const maxAllocs = 2
	if got := testing.AllocsPerRun(100, func() { _ = cfg.Validate(opts.Params, sys) }); got > maxAllocs {
		t.Errorf("Validate allocates %v times on the cruise BBC configuration, want <= %d", got, maxAllocs)
	}
}
