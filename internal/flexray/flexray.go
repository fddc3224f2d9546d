// Package flexray models the FlexRay bus access configuration
// (Section 3 of the paper): the periodic communication cycle made of a
// static (ST) segment — a generalised TDMA sequence of equally sized
// slots — and a dynamic (DYN) segment — a flexible TDMA sequence of
// minislots. A Config is the object the optimisation heuristics of
// package core search for: slot size and count, slot-to-node
// assignment, DYN segment length, and FrameID assignment for DYN
// messages.
package flexray

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/units"
)

// Protocol limits from the FlexRay specification as cited by the paper
// (Section 6).
const (
	// MaxStaticSlots is gdNumberOfStaticSlots_max: at most 1023
	// static slots per cycle.
	MaxStaticSlots = 1023
	// MaxStaticSlotMacroticks is gdStaticSlot_max: a static slot is
	// at most 661 macroticks long.
	MaxStaticSlotMacroticks = 661
	// MaxMinislots is the most minislots a dynamic segment may have
	// (7994).
	MaxMinislots = 7994
	// PayloadStepBits: frame payload grows in 2-byte increments,
	// i.e. the static slot length is explored in steps of 20 gdBit
	// (Fig. 6 line 4).
	PayloadStepBits = 20
)

// MaxCycle is the maximum bus cycle length: the paper's BBC requires
// gdCycle < 16000 µs (Fig. 5 line 7).
const MaxCycle = 16 * units.Millisecond

// Params are the physical-layer constants a design is built against.
// They scale durations but do not affect any algorithm.
type Params struct {
	// GdBit is the time to transmit one bit (100 ns at 10 Mbit/s,
	// FlexRay's nominal rate).
	GdBit units.Duration
	// Macrotick is the network-wide time granule; slot lengths are
	// multiples of it.
	Macrotick units.Duration
}

// DefaultParams is a 10 Mbit/s channel with a 1 µs macrotick.
func DefaultParams() Params {
	return Params{GdBit: 100 * units.Nanosecond, Macrotick: units.Microsecond}
}

// BitTime converts a payload size in bits to bus time (Eq. 1).
func (p Params) BitTime(bits int) units.Duration {
	return units.Duration(bits) * p.GdBit
}

// SlotStep is the granularity with which the static slot length is
// explored (20 gdBit, Fig. 6 line 4).
func (p Params) SlotStep() units.Duration {
	return units.Duration(PayloadStepBits) * p.GdBit
}

// MaxStaticSlotLen is gdStaticSlot_max expressed in time.
func (p Params) MaxStaticSlotLen() units.Duration {
	return units.Duration(MaxStaticSlotMacroticks) * p.Macrotick
}

// LatestTxPolicy selects how "does this frame still fit in the DYN
// segment?" is decided at the start of a dynamic slot.
type LatestTxPolicy uint8

const (
	// LatestTxPerFrame transmits a frame of size s minislots
	// starting at minislot counter i iff i+s-1 <= NumMinislots. This
	// is the behaviour of the paper's Fig. 4 example (see DESIGN.md
	// §3) and the package default.
	LatestTxPerFrame LatestTxPolicy = iota
	// LatestTxPerNode transmits iff i <= pLatestTx(node), where
	// pLatestTx is precomputed from the *largest* DYN frame the node
	// sends (the FlexRay specification's per-node parameter,
	// Section 3).
	LatestTxPerNode
)

func (p LatestTxPolicy) String() string {
	switch p {
	case LatestTxPerFrame:
		return "per-frame"
	case LatestTxPerNode:
		return "per-node"
	default:
		return fmt.Sprintf("LatestTxPolicy(%d)", uint8(p))
	}
}

// Config is a complete bus access configuration. The six subproblems of
// Section 6 map onto its fields: (1) StaticSlotLen, (2) NumStaticSlots,
// (3) StaticSlotOwner, (4) NumMinislots (with MinislotLen), (5)+(6)
// FrameID (assigning a FrameID to a message implicitly assigns the
// corresponding DYN slot to its sender node).
type Config struct {
	// StaticSlotLen is gdStaticSlot, the constant length of every
	// static slot.
	StaticSlotLen units.Duration
	// NumStaticSlots is gdNumberOfStaticSlots.
	NumStaticSlots int
	// StaticSlotOwner[i] is the node owning static slot i+1 (slots
	// are numbered from 1 on the bus); -1 marks an unassigned slot.
	StaticSlotOwner []model.NodeID
	// MinislotLen is gdMinislot.
	MinislotLen units.Duration
	// NumMinislots is gNumberOfMinislots, fixing the DYN segment
	// length to NumMinislots*MinislotLen.
	NumMinislots int
	// FrameID assigns each DYN message its dynamic frame identifier
	// (1-based). Messages may share a FrameID only when sent by the
	// same node; the slot then multiplexes them by priority.
	FrameID map[model.ActID]int
	// Policy selects the latest-transmission-start rule.
	Policy LatestTxPolicy
}

// STBus is the static segment length (STbus in the paper).
func (c *Config) STBus() units.Duration {
	return units.Duration(c.NumStaticSlots) * c.StaticSlotLen
}

// DYNBus is the dynamic segment length (DYNbus in the paper).
func (c *Config) DYNBus() units.Duration {
	return units.Duration(c.NumMinislots) * c.MinislotLen
}

// Cycle is gdCycle, the bus period.
func (c *Config) Cycle() units.Duration {
	return c.STBus() + c.DYNBus()
}

// StaticSlotStart returns the absolute start time of static slot `slot`
// (1-based) in bus cycle `cycle` (0-based).
func (c *Config) StaticSlotStart(cycle int64, slot int) units.Time {
	return units.Time(int64(c.Cycle())*cycle + int64(c.StaticSlotLen)*int64(slot-1))
}

// StaticSlotEnd returns the end of the slot; ST frames are considered
// delivered at this instant (DESIGN.md §3).
func (c *Config) StaticSlotEnd(cycle int64, slot int) units.Time {
	return c.StaticSlotStart(cycle, slot).Add(c.StaticSlotLen)
}

// DYNStart returns the absolute start of the dynamic segment of bus
// cycle `cycle`.
func (c *Config) DYNStart(cycle int64) units.Time {
	return units.Time(int64(c.Cycle())*cycle + int64(c.STBus()))
}

// CycleStart returns the absolute start of bus cycle `cycle`.
func (c *Config) CycleStart(cycle int64) units.Time {
	return units.Time(int64(c.Cycle()) * cycle)
}

// CycleOf returns the index of the bus cycle containing instant t.
func (c *Config) CycleOf(t units.Time) int64 {
	cy := c.Cycle()
	if t < 0 {
		return (int64(t) - int64(cy) + 1) / int64(cy)
	}
	return int64(t) / int64(cy)
}

// SizeInMinislots converts a communication time to a whole number of
// minislots (a DYN slot carrying a frame stretches to the number of
// minislots needed to transmit it, Section 3).
func (c *Config) SizeInMinislots(comm units.Duration) int {
	return int(units.CeilDiv(int64(comm), int64(c.MinislotLen)))
}

// SlotsOfNode returns the static slot numbers (1-based, ascending)
// owned by node n.
func (c *Config) SlotsOfNode(n model.NodeID) []int {
	var out []int
	for i, o := range c.StaticSlotOwner {
		if o == n {
			out = append(out, i+1)
		}
	}
	return out
}

// DYNNodeOf returns the node owning dynamic slot fid according to the
// FrameID assignment, or -1 if the slot is unused.
func (c *Config) DYNNodeOf(app *model.Application, fid int) model.NodeID {
	for m, f := range c.FrameID {
		if f == fid {
			return app.Act(m).Node
		}
	}
	return -1
}

// MaxFrameID returns the largest assigned FrameID (0 when no DYN
// messages exist).
func (c *Config) MaxFrameID() int {
	max := 0
	for _, f := range c.FrameID {
		if f > max {
			max = f
		}
	}
	return max
}

// PLatestTx returns the per-node latest transmission start (in minislot
// counter units, 1-based): the largest minislot counter value at which
// the node may still begin transmitting, derived from the largest DYN
// frame it sends. Only meaningful under LatestTxPerNode.
func (c *Config) PLatestTx(app *model.Application, n model.NodeID) int {
	largest := 0
	for m := range c.FrameID {
		a := app.Act(m)
		if a.Node != n {
			continue
		}
		if s := c.SizeInMinislots(a.C); s > largest {
			largest = s
		}
	}
	if largest == 0 {
		return c.NumMinislots
	}
	return c.NumMinislots - largest + 1
}

// FitsAt reports whether message m (of size sizeMS minislots, sent by
// node n) may start transmitting when the minislot counter shows ms
// (1-based), under the configured policy.
func (c *Config) FitsAt(app *model.Application, m model.ActID, ms int) bool {
	a := app.Act(m)
	switch c.Policy {
	case LatestTxPerNode:
		return ms <= c.PLatestTx(app, a.Node)
	default:
		return ms+c.SizeInMinislots(a.C)-1 <= c.NumMinislots
	}
}

// Clone returns a deep copy of the configuration; optimisers mutate
// clones while keeping the incumbent intact.
func (c *Config) Clone() *Config {
	cl := *c
	cl.StaticSlotOwner = append([]model.NodeID(nil), c.StaticSlotOwner...)
	cl.FrameID = make(map[model.ActID]int, len(c.FrameID))
	for k, v := range c.FrameID {
		cl.FrameID[k] = v
	}
	return &cl
}

// String summarises the configuration for logs and reports.
func (c *Config) String() string {
	fids := make([]int, 0, len(c.FrameID))
	for _, f := range c.FrameID {
		fids = append(fids, f)
	}
	sort.Ints(fids)
	return fmt.Sprintf("flexray{ST: %d×%v=%v, DYN: %d×%v=%v, cycle %v, %d FrameIDs, %s}",
		c.NumStaticSlots, c.StaticSlotLen, c.STBus(),
		c.NumMinislots, c.MinislotLen, c.DYNBus(),
		c.Cycle(), len(fids), c.Policy)
}
