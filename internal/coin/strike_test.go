package coin

import (
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
)

// strikeCfg is a hardened 4-way config that prunes a partner on its first
// silent timeout, so a single exchangeTimeout exercises the pruning path for
// every struck neighbor at once.
func strikeCfg() Config {
	return Config{
		Mesh:              mesh.Square(3, false),
		Mode:              FourWay,
		Harden:            true,
		NeighborDeadAfter: 1,
	}
}

// Regression test: strikePartner used to delete the struck partner from the
// neighbor slice in place while exchangeTimeout was ranging over that same
// slice, shifting the not-yet-visited elements under the iteration — so of
// four silent neighbors only alternate ones were struck. Tombstoning must
// prune all four in one timeout pass, without invalidating any slot index.
func TestTimeoutStrikesEverySilentNeighbor(t *testing.T) {
	e := NewEmulator(strikeCfg(), rng.New(1))
	center := 4 // interior tile of the 3x3: four distinct neighbors
	if e.nbrCount[center] != 4 {
		t.Fatalf("center has %d neighbor slots, want 4", e.nbrCount[center])
	}
	e.startFourWay(center)
	if e.flags[center]&fBusy == 0 || e.flags[center]&fPendActive == 0 {
		t.Fatal("startFourWay did not mark the exchange in flight")
	}
	e.exchangeTimeout(center, e.seqNo[center])

	if e.liveNbrs[center] != 0 {
		t.Fatalf("liveNbrs = %d after all-silent timeout, want 0", e.liveNbrs[center])
	}
	for s := 0; s < int(e.nbrCount[center]); s++ {
		if e.nbrDeadMask[center]&(1<<s) == 0 {
			t.Fatalf("neighbor slot %d (tile %d) not tombstoned", s, e.nbrs[center*maxNbrs+s])
		}
	}
	if e.nbrsPruned != 4 {
		t.Fatalf("nbrsPruned = %d, want 4", e.nbrsPruned)
	}
	// Tombstones must not move or remove slots: any held index stays valid.
	if e.nbrCount[center] != 4 {
		t.Fatalf("nbrCount = %d after pruning, want 4 (slots are never deleted)", e.nbrCount[center])
	}
	if e.flags[center]&fBusy != 0 {
		t.Fatal("timeout left the center busy")
	}
}

// A partial timeout must strike only the silent neighbors and release the
// joined (non-nack) ones with a zero-delta update.
func TestTimeoutPartialAnswersStrikeOnlySilent(t *testing.T) {
	e := NewEmulator(strikeCfg(), rng.New(1))
	center := 4
	e.startFourWay(center)
	base := center * maxNbrs
	joined, nacked := int(e.nbrs[base]), int(e.nbrs[base+1])
	e.onFourWayStatus(center, joined, CoinMsg{Has: 3, Max: 8, Reply: true, Seq: e.seqNo[center]})
	e.onFourWayStatus(center, nacked, CoinMsg{Reply: true, Nack: true, Seq: e.seqNo[center]})

	sentBefore := e.net.Stats().Sent
	e.exchangeTimeout(center, e.seqNo[center])
	if e.nbrsPruned != 2 {
		t.Fatalf("nbrsPruned = %d, want 2 (the two silent neighbors)", e.nbrsPruned)
	}
	if e.nbrDeadMask[center]&0b11 != 0 {
		t.Fatal("an answering neighbor was tombstoned")
	}
	if e.nbrDeadMask[center]&0b1100 != 0b1100 {
		t.Fatal("a silent neighbor was not tombstoned")
	}
	// Exactly one release packet: the joined neighbor. The nack'd one never
	// locked itself and must not be released.
	if got := e.net.Stats().Sent - sentBefore; got != 1 {
		t.Fatalf("timeout sent %d packets, want 1 (zero-delta release to the joined neighbor)", got)
	}
}

// The round-robin cursor must skip tombstoned slots and keep cycling the
// survivors in slot order.
func TestNextRRPartnerSkipsTombstones(t *testing.T) {
	e := NewEmulator(strikeCfg(), rng.New(1))
	center := 4
	base := center * maxNbrs
	nbrs := [maxNbrs]int{10, 11, 12, 13}
	for s, nb := range nbrs {
		e.nbrs[base+s] = int32(nb)
	}
	e.nbrDeadMask[center] = 1 << 1
	e.liveNbrs[center]--
	want := []int{10, 12, 13, 10, 12, 13}
	for i, w := range want {
		if got := e.nextRRPartner(center); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
	e.nbrDeadMask[center] = 0b1111
	e.liveNbrs[center] = 0
	if got := e.nextRRPartner(center); got != -1 {
		t.Fatalf("all-dead draw = %d, want -1", got)
	}
}
