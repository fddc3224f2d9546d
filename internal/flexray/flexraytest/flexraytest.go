// Package flexraytest provides configuration perturbations for tests
// that drive the analysis and the simulator over configurations no
// optimiser would pick.
package flexraytest

import (
	"math/rand"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

// Perturb applies 1-3 random moves to a clone of base: dynamic segment
// resizes, minislot-length changes, FrameID swaps between the given DYN
// messages, FrameID drops (an unassigned message) and arbitration
// policy flips — the full invalidation surface of a reusable analyzer.
func Perturb(rng *rand.Rand, base *flexray.Config, dyn []model.ActID) *flexray.Config {
	cfg := base.Clone()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			cfg.NumMinislots += rng.Intn(41) - 10
			if cfg.NumMinislots < 1 {
				cfg.NumMinislots = 1
			}
		case 1:
			cfg.MinislotLen = base.MinislotLen * units.Duration(1+rng.Intn(3))
		case 2:
			if len(dyn) >= 2 {
				i, j := dyn[rng.Intn(len(dyn))], dyn[rng.Intn(len(dyn))]
				cfg.FrameID[i], cfg.FrameID[j] = cfg.FrameID[j], cfg.FrameID[i]
			}
		case 3:
			if len(dyn) > 1 {
				delete(cfg.FrameID, dyn[rng.Intn(len(dyn))])
			}
		case 4:
			if cfg.Policy == flexray.LatestTxPerNode {
				cfg.Policy = 0
			} else {
				cfg.Policy = flexray.LatestTxPerNode
			}
		}
	}
	return cfg
}
