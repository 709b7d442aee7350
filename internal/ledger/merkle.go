// Package ledger is an append-only, Merkle-batched results ledger: every
// completed sweep appends one entry keyed by (options hash, engine
// version) with the SHA-256 of its canonical result JSON, and any entry's
// membership can later be proven with an RFC 6962-style inclusion proof —
// so a cached or cluster-merged result can be audited back to the engine
// run that produced it without trusting the serving daemon.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
)

// hashSize is sha256.Size, named for the wire checks.
const hashSize = sha256.Size

// Domain-separation prefixes (RFC 6962): leaves and interior nodes hash
// differently, so a leaf can never be confused for a subtree root.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// leafBuf is the stack buffer for one leaf's input: a ledger entry (two
// hex digests and an engine version) fits; longer data spills to the heap.
const leafBuf = 256

// leafHash hashes one entry's canonical encoding as a tree leaf.
func leafHash(data []byte) [hashSize]byte {
	var buf [leafBuf]byte
	return sha256.Sum256(append(append(buf[:0], leafPrefix), data...))
}

// nodeHash hashes two child roots into their parent.
func nodeHash(l, r [hashSize]byte) [hashSize]byte {
	var buf [1 + 2*hashSize]byte
	buf[0] = nodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+hashSize:], r[:])
	return sha256.Sum256(buf[:])
}

// splitPoint returns the largest power of two strictly less than n
// (n >= 2) — the left-subtree size of RFC 6962's Merkle tree head.
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// tree is an append-only RFC 6962 Merkle tree that keeps the root of
// every complete perfect subtree, by level: levels[0] holds the leaf
// hashes, and levels[h][i] is the root over leaves [i·2^h, (i+1)·2^h).
// A tree of n leaves stores fewer than 2n hashes.
type tree struct {
	levels [][][hashSize]byte
}

// size reports the number of leaves.
func (t *tree) size() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// push appends a leaf hash and the subtree roots it completes: one node
// hash per append, amortized.
func (t *tree) push(leaf [hashSize]byte) {
	h := leaf
	for lvl := 0; ; lvl++ {
		if lvl == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		t.levels[lvl] = append(t.levels[lvl], h)
		n := len(t.levels[lvl])
		if n%2 == 1 {
			return
		}
		h = nodeHash(t.levels[lvl][n-2], h)
	}
}

// root returns the tree head (MTH) over the n >= 1 leaves starting at lo.
// The range splits into perfect subtrees by the binary form of n, largest
// first, and RFC 6962 nests their roots rightmost-innermost, so the fold
// runs from the lowest set bit up: at most log₂ n stored roots and that
// many node hashes. lo must be a multiple of the smallest power of two
// >= n — true of 0 and of every range inclusion paths visit — and
// lo+n <= t.size().
func (t *tree) root(lo, n int) [hashSize]byte {
	var r [hashSize]byte
	folded := false
	for h := 0; n>>h != 0; h++ {
		if n>>h&1 == 0 {
			continue
		}
		// This subtree starts after the larger ones, the bits above h.
		above := n >> (h + 1) << (h + 1)
		s := t.levels[h][(lo+above)>>h]
		if folded {
			r = nodeHash(s, r)
		} else {
			r, folded = s, true
		}
	}
	return r
}

// path returns the audit path for leaf m (0-based) in the tree over the
// first n leaves — the sibling hashes bottom-up that VerifyInclusion
// folds back into the root. It walks RFC 6962's PATH recursion top-down:
// each sibling is a stored perfect subtree or a root() fold, so the path
// costs O(log² n) hashes.
func (t *tree) path(m, n int) [][hashSize]byte {
	var p [][hashSize]byte
	lo := 0
	for n > 1 {
		k := splitPoint(n)
		if m < k {
			p = append(p, t.root(lo+k, n-k))
			n = k
		} else {
			p = append(p, t.root(lo, k))
			lo, m, n = lo+k, m-k, n-k
		}
	}
	slices.Reverse(p)
	return p
}

// VerifyInclusion checks an RFC 6962 inclusion proof: that leaf sits at
// index in a tree of size whose head is root. It is self-contained so
// clients (blitzctl -verify) can run it without the ledger file.
func VerifyInclusion(leaf [hashSize]byte, index, size uint64, path [][hashSize]byte, root [hashSize]byte) error {
	if index >= size {
		return fmt.Errorf("ledger: leaf index %d outside tree of size %d", index, size)
	}
	fn, sn := index, size-1
	r := leaf
	for _, p := range path {
		if sn == 0 {
			return fmt.Errorf("ledger: proof longer than the tree is deep")
		}
		if fn%2 == 1 || fn == sn {
			r = nodeHash(p, r)
			for fn%2 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("ledger: proof shorter than the tree is deep")
	}
	if r != root {
		return fmt.Errorf("ledger: proof folds to root %s, want %s",
			hex.EncodeToString(r[:]), hex.EncodeToString(root[:]))
	}
	return nil
}
