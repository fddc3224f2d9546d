package flexray

import (
	"encoding/binary"
	"hash/fnv"
	"slices"

	"repro/internal/model"
)

// Fingerprint returns a collision-resistant 128-bit digest of the
// configuration, identical for semantically identical configurations
// (the FrameID map is folded in sorted order). The campaign engine uses
// it as the key of its bounded evaluation cache.
//
// The digest is FNV-1a over the fields as little-endian int64 words:
// the slot geometry, each static slot owner, the minislot geometry and
// policy, then (message, FrameID) pairs in message order. The words go
// into a stack buffer that is hashed when it fills and once at the
// end, and the message ids are sorted in a stack-backed slice, so a
// configuration of up to 64 FrameIDs is fingerprinted without
// allocating.
func (c *Config) Fingerprint() [16]byte {
	var idBuf [64]model.ActID
	ids := idBuf[:0]
	for m := range c.FrameID {
		ids = append(ids, m)
	}
	slices.Sort(ids)

	h := fnv.New128a()
	var buf [512]byte
	b := buf[:0]
	w := func(v int64) {
		if len(b) == len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	w(int64(c.StaticSlotLen))
	w(int64(c.NumStaticSlots))
	for _, o := range c.StaticSlotOwner {
		w(int64(o))
	}
	w(int64(c.MinislotLen))
	w(int64(c.NumMinislots))
	w(int64(c.Policy))
	for _, m := range ids {
		w(int64(m))
		w(int64(c.FrameID[m]))
	}
	h.Write(b)
	var out [16]byte
	h.Sum(out[:0])
	return out
}
