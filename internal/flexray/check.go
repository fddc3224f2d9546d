package flexray

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/model"
	"repro/internal/units"
)

// CheckKind names the protocol rule a Problem violates; reports that
// group problems by rule (the lint package's) group them by kind.
type CheckKind uint8

const (
	CheckStaticSegment  CheckKind = iota + 1 // slot count and length within limits
	CheckDynamicSegment                      // minislot count and length within limits
	CheckCycle                               // gdCycle below 16 ms
	CheckSlotOwners                          // one valid owner per static slot
	CheckSTSenders                           // every ST-sending node owns a slot
	CheckSTFrameFits                         // the largest ST frame fits gdStaticSlot
	CheckFrameIDs                            // FrameIDs total, >= 1 and DYN-only
	CheckFrameIDSharing                      // no FrameID shared across nodes
	CheckReachable                           // every DYN frame fits the segment
)

// Problem is one protocol violation found by Check.
type Problem struct {
	Kind CheckKind
	// Subject names what violates the rule: a segment ("static",
	// "dynamic", "cycle", "owners"), a static slot, a node, a
	// message or a FrameID.
	Subject string
	Message string
}

func (p Problem) Error() string { return p.Subject + ": " + p.Message }

// dynFrame is one DYN message with a FrameID >= 1.
type dynFrame struct {
	fid int
	id  model.ActID
}

// checkStack bounds the scratch Check keeps on its stack: the slot
// owners of up to checkStack nodes and up to checkStack DYN frames.
// Larger systems take one heap slice each.
const checkStack = 128

// Check returns every way the configuration breaks the protocol
// limits or does not fit the application, in CheckKind order; nil
// means the configuration is valid. It never panics, whatever the
// Config holds, and allocates problems only when it finds some: on a
// valid configuration of up to checkStack nodes and DYN messages it
// allocates nothing (SA checks every candidate). The system is assumed
// to pass model.System.Validate.
func (c *Config) Check(p Params, sys *model.System) []Problem {
	var probs []Problem
	add := func(kind CheckKind, subject, format string, args ...any) {
		probs = append(probs, Problem{Kind: kind, Subject: subject, Message: fmt.Sprintf(format, args...)})
	}
	app, nodes := &sys.App, sys.Platform.NumNodes

	if c.NumStaticSlots < 0 || c.NumStaticSlots > MaxStaticSlots {
		add(CheckStaticSegment, "static", "gdNumberOfStaticSlots %d outside [0,%d]", c.NumStaticSlots, MaxStaticSlots)
	}
	if c.NumStaticSlots > 0 && c.StaticSlotLen <= 0 {
		add(CheckStaticSegment, "static", "non-positive gdStaticSlot %v", c.StaticSlotLen)
	}
	if lim := p.MaxStaticSlotLen(); c.StaticSlotLen > lim {
		add(CheckStaticSegment, "static", "gdStaticSlot %v exceeds %d macroticks (%v)", c.StaticSlotLen, MaxStaticSlotMacroticks, lim)
	}
	if c.NumMinislots < 0 || c.NumMinislots > MaxMinislots {
		add(CheckDynamicSegment, "dynamic", "gNumberOfMinislots %d outside [0,%d]", c.NumMinislots, MaxMinislots)
	}
	if c.NumMinislots > 0 && c.MinislotLen <= 0 {
		add(CheckDynamicSegment, "dynamic", "non-positive gdMinislot %v", c.MinislotLen)
	}
	// gdCycle in float64: the int64 products of Cycle() wrap to a
	// short or negative cycle when a segment is hostile.
	st := float64(c.NumStaticSlots) * float64(c.StaticSlotLen)
	if cy := st + float64(c.NumMinislots)*float64(c.MinislotLen); cy >= float64(MaxCycle) {
		add(CheckCycle, "cycle", "gdCycle %v not below the 16 ms protocol limit", units.Duration(min(cy, float64(units.Infinite))))
	}
	if len(c.StaticSlotOwner) != c.NumStaticSlots {
		add(CheckSlotOwners, "owners", "StaticSlotOwner has %d entries for %d slots", len(c.StaticSlotOwner), c.NumStaticSlots)
	}
	var ownedBuf [checkStack]bool
	owned := ownedBuf[:0]
	if nodes > checkStack {
		owned = make([]bool, nodes)
	} else if nodes > 0 {
		owned = ownedBuf[:nodes]
	}
	for i, o := range c.StaticSlotOwner {
		switch {
		case int(o) >= nodes || o < -1:
			add(CheckSlotOwners, fmt.Sprintf("slot %d", i+1), "bad owner %d for a %d-node platform", o, nodes)
		case o >= 0:
			owned[o] = true
		}
	}

	// Slotless ST senders, each reported once (marked owned after).
	var maxST units.Duration
	for i := range app.Acts {
		a := &app.Acts[i]
		if !a.IsMessage() || a.Class != model.ST {
			continue
		}
		maxST = max(maxST, a.C)
		if n := a.Node; n >= 0 && int(n) < nodes && !owned[n] {
			owned[n] = true
			add(CheckSTSenders, sys.Platform.NodeName(n),
				"node sends ST messages but owns no static slot: its frames can never be transmitted")
		}
	}
	if c.NumStaticSlots > 0 && maxST > c.StaticSlotLen {
		add(CheckSTFrameFits, "static", "largest ST message (%v) exceeds gdStaticSlot (%v)", maxST, c.StaticSlotLen)
	}

	var frameBuf [checkStack]dynFrame
	frames := frameBuf[:0]
	keyed := 0 // DYN messages present in c.FrameID
	for i := range app.Acts {
		a := &app.Acts[i]
		if !isDYN(a) {
			continue
		}
		fid, ok := c.FrameID[a.ID]
		switch {
		case !ok:
			add(CheckFrameIDs, a.Name, "DYN message has no FrameID: it can never be transmitted")
			continue
		case fid < 1:
			add(CheckFrameIDs, a.Name, "FrameID %d < 1 (FrameIDs are 1-based)", fid)
		default:
			frames = append(frames, dynFrame{fid, a.ID})
		}
		keyed++
	}
	// Every key that is not a DYN message is a stray; only scan for
	// them when the counts say some exist.
	if len(c.FrameID) > keyed {
		var stray []model.ActID
		for m := range c.FrameID {
			if int(m) < 0 || int(m) >= len(app.Acts) || !isDYN(app.Act(m)) {
				stray = append(stray, m)
			}
		}
		slices.Sort(stray)
		for _, m := range stray {
			if int(m) < 0 || int(m) >= len(app.Acts) {
				add(CheckFrameIDs, fmt.Sprintf("act %d", m), "FrameID assigned to a non-existent activity id")
			} else {
				add(CheckFrameIDs, app.Act(m).Name, "FrameID assigned to a non-DYN activity")
			}
		}
	}

	// Sharing and reachability, in (FrameID, id) order.
	slices.SortFunc(frames, func(a, b dynFrame) int {
		return cmp.Or(cmp.Compare(a.fid, b.fid), cmp.Compare(a.id, b.id))
	})
	for lo, hi := 0, 0; lo < len(frames); lo = hi {
		cross := false
		for hi = lo + 1; hi < len(frames) && frames[hi].fid == frames[lo].fid; hi++ {
			cross = cross || app.Act(frames[hi].id).Node != app.Act(frames[lo].id).Node
		}
		if cross {
			add(CheckFrameIDSharing, fmt.Sprintf("FrameID %d", frames[lo].fid),
				"shared across nodes %s: two nodes would transmit in the same dynamic slot",
				nodeNames(sys, frames[lo:hi]))
		}
	}
	for _, fr := range frames {
		// A frame of s minislots at FrameID f fits iff f+s-1 <=
		// gNumberOfMinislots (written overflow-free); nothing fits an
		// empty segment. A non-positive gdMinislot sizes frames at 0.
		s := 0
		if c.MinislotLen > 0 {
			s = c.SizeInMinislots(app.Act(fr.id).C)
		}
		if c.NumMinislots <= 0 || s > c.NumMinislots-fr.fid+1 {
			add(CheckReachable, app.Act(fr.id).Name, "FrameID %d with a %d-minislot frame can never fit the %d-minislot segment",
				fr.fid, s, c.NumMinislots)
		}
	}
	return probs
}

func isDYN(a *model.Activity) bool { return a.IsMessage() && a.Class == model.DYN }

// nodeNames lists the distinct sender nodes of frames, ascending.
func nodeNames(sys *model.System, frames []dynFrame) string {
	var ns []model.NodeID
	for _, fr := range frames {
		ns = append(ns, sys.App.Act(fr.id).Node)
	}
	slices.Sort(ns)
	var names []string
	for _, n := range slices.Compact(ns) {
		names = append(names, sys.Platform.NodeName(n))
	}
	return strings.Join(names, ", ")
}

// Validate checks the configuration against the protocol limits and
// against the application: every ST-sending node owns a slot, every DYN
// message has a FrameID that is reachable within the dynamic segment,
// and FrameID sharing never crosses nodes. The error joins Check's
// problems, one "subject: message" line each.
func (c *Config) Validate(p Params, sys *model.System) error {
	var errs []error
	for _, pr := range c.Check(p, sys) {
		errs = append(errs, pr)
	}
	return errors.Join(errs...)
}
