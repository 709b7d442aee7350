package sim

// Slots holds the records that typed events carry by index, the x of an
// (op, tile, x) event: a sender's messages in flight, which the NoC only
// routes (the coin emulator's messages, the SoC runner's DMA bursts).
// Records live in fixed chunks of 64 that never move, so a record's
// address is stable while its index is taken, and growing by a chunk
// costs one allocation, not one per record. The zero value is ready to
// use.
type Slots[T any] struct {
	chunks []*[slotChunk]T
	free   []int32
}

const (
	slotBits  = 6
	slotChunk = 1 << slotBits
	slotMask  = slotChunk - 1
)

// Take pops a vacant index and returns it with its record, which keeps
// its last occupant's fields. When none is vacant it adds a chunk, lists
// all but the chunk's first index as vacant and returns the first. The
// free list, empty then, can come to hold every index, so its capacity is
// kept ahead of the index count in one doubling step rather than grown by
// append.
func (s *Slots[T]) Take() (int32, *T) {
	k := len(s.free) - 1
	if k < 0 {
		base := int32(len(s.chunks)) << slotBits
		c := new([slotChunk]T)
		s.chunks = append(s.chunks, c)
		if need := len(s.chunks) * slotChunk; cap(s.free) < need {
			s.free = make([]int32, 0, 2*need)
		}
		for i := base + slotMask; i > base; i-- {
			s.free = append(s.free, i)
		}
		return base, &c[0]
	}
	i := s.free[k]
	s.free = s.free[:k]
	return i, &s.chunks[i>>slotBits][i&slotMask]
}

// At returns the record at index i.
func (s *Slots[T]) At(i int32) *T { return &s.chunks[i>>slotBits][i&slotMask] }

// Free lists index i as vacant; a later Take reuses its record.
func (s *Slots[T]) Free(i int32) { s.free = append(s.free, i) }
