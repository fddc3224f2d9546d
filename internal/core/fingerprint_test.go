package core

import (
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

// fingerprintConfigs returns the cruise BBC configuration, a chain of
// five SA moves from it (seeded, so the chain is fixed), the BBC
// configuration with its FrameIDs rotated by one message, and a large
// configuration whose encoding outgrows Fingerprint's stack buffers.
func fingerprintConfigs(t *testing.T) []*flexray.Config {
	t.Helper()
	sys := cruise.MustSystem()
	opts := DefaultOptions().withDefaults()
	res, err := BBC(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	senders := sys.App.STSenderNodes()
	rng := rand.New(rand.NewSource(5))
	cfgs := []*flexray.Config{res.Config}
	for cur := res.Config; len(cfgs) < 6; {
		if next := mutate(sys, cur, rng, opts, senders); next != nil {
			cfgs = append(cfgs, next)
			cur = next
		}
	}

	rot := res.Config.Clone()
	var msgs []model.ActID
	for m := range rot.FrameID {
		msgs = append(msgs, m)
	}
	slices.Sort(msgs)
	for i, m := range msgs {
		rot.FrameID[m] = res.Config.FrameID[msgs[(i+1)%len(msgs)]]
	}

	big := &flexray.Config{
		StaticSlotLen: 40 * units.Microsecond, NumStaticSlots: 90,
		MinislotLen: 5 * units.Microsecond, NumMinislots: 300,
		Policy: flexray.LatestTxPerNode, FrameID: map[model.ActID]int{},
	}
	for i := 0; i < 90; i++ {
		big.StaticSlotOwner = append(big.StaticSlotOwner, model.NodeID(i%7))
	}
	for m := 0; m < 150; m++ {
		big.FrameID[model.ActID(3*m+1)] = 91 + (m*37)%150
	}
	return append(cfgs, rot, big)
}

// TestFingerprintDigestsPinned pins Config.Fingerprint to the digests
// of the one-Write-per-word encoding it replaced (values recorded from
// that implementation): the evaluation cache's keys, and so which
// candidates share an entry, must not change.
func TestFingerprintDigestsPinned(t *testing.T) {
	want := []string{
		"c37588e3a4a27150072bd72c8e948125", // cruise BBC
		"f4ff5599ade7ed19e75b5913a1233184", // SA moves from it
		"0ff22781bbf5f3d3700d49141da26dc3",
		"1cff5f0fca6dd7985e6e7bbfc6de7ea2",
		"cd9b7f140ebb1dd7422bcb017d540269",
		"1f74abcb1525f8d61000c3bea64be3ca",
		"58ea70b13fdd5eb9018435c2525da225", // FrameIDs rotated
		"83bfa5b416daa44108ed317621f90374", // 90 slots, 150 FrameIDs
	}
	cfgs := fingerprintConfigs(t)
	if len(cfgs) != len(want) {
		t.Fatalf("%d configurations, %d pinned digests", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		got := c.Fingerprint()
		if hex.EncodeToString(got[:]) != want[i] {
			t.Errorf("config %d: Fingerprint = %x, pinned %s", i, got, want[i])
		}
	}
}

// TestFingerprintAllocatesNothing: the campaign engine fingerprints
// every candidate it is asked to evaluate, so fingerprinting a
// configuration of the cruise system's size must not allocate.
func TestFingerprintAllocatesNothing(t *testing.T) {
	cfgs := fingerprintConfigs(t)
	for i, c := range cfgs[:len(cfgs)-1] {
		if got := testing.AllocsPerRun(100, func() { _ = c.Fingerprint() }); got != 0 {
			t.Errorf("config %d: Fingerprint allocates %v times, want 0", i, got)
		}
	}
}
