package sim

import "testing"

// Slots hands out distinct indices while they are taken, keeps each
// record's address across chunk growth, and reuses a freed index with its
// record's old fields.
func TestSlotsTakeFreeReuse(t *testing.T) {
	var s Slots[[2]int]
	held := map[int32]*[2]int{}
	for k := 0; k < 3*slotChunk+5; k++ {
		i, r := s.Take()
		if held[i] != nil {
			t.Fatalf("index %d handed out twice", i)
		}
		r[0] = int(i)
		held[i] = r
	}
	for i, r := range held {
		if s.At(i) != r || r[0] != int(i) {
			t.Fatalf("record %d moved or changed", i)
		}
	}
	s.Free(7)
	if i, r := s.Take(); i != 7 || r != held[7] || r[0] != 7 {
		t.Fatalf("Take after Free(7) = %d, want 7 with its old record", i)
	}
	if got, want := len(s.chunks), 4; got != want {
		t.Fatalf("%d chunks for %d records, want %d", got, 3*slotChunk+5, want)
	}
}
