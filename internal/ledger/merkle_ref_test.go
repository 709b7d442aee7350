package ledger

import (
	"encoding/hex"
	"fmt"
	"testing"
)

// merkleRoot is the reference tree head (RFC 6962 MTH), computed by the
// specification's recursion over every leaf. The caller guarantees
// len(leaves) >= 1.
func merkleRoot(leaves [][hashSize]byte) [hashSize]byte {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(merkleRoot(leaves[:k]), merkleRoot(leaves[k:]))
}

// inclusionPath is the reference audit path (RFC 6962 PATH) for leaf m
// (0-based), leaf-adjacent sibling first.
func inclusionPath(leaves [][hashSize]byte, m int) [][hashSize]byte {
	if len(leaves) <= 1 {
		return nil
	}
	k := splitPoint(len(leaves))
	if m < k {
		return append(inclusionPath(leaves[:k], m), merkleRoot(leaves[k:]))
	}
	return append(inclusionPath(leaves[k:], m-k), merkleRoot(leaves[:k]))
}

// oracleLeaves returns the reference leaf hashes of the ledger's entries.
func oracleLeaves(entries []Entry) [][hashSize]byte {
	leaves := make([][hashSize]byte, len(entries))
	for i, e := range entries {
		leaves[i] = leafHash([]byte(e.Key + "\n" + e.Engine + "\n" + e.ResultSHA))
	}
	return leaves
}

// TestTreeMatchesOracle: for every tree size n in 1..260 (across the
// 128 and 256 boundaries), the head at every prefix size — what a seal
// checks — and the audit path of every leaf equal the reference
// recursion's.
func TestTreeMatchesOracle(t *testing.T) {
	const maxN = 260
	leaves := make([][hashSize]byte, maxN)
	heads := make([][hashSize]byte, maxN+1)
	for i := range leaves {
		leaves[i] = leafHash([]byte(fmt.Sprintf("leaf-%d", i)))
		heads[i+1] = merkleRoot(leaves[:i+1])
	}
	var tr tree
	for n := 1; n <= maxN; n++ {
		tr.push(leaves[n-1])
		if tr.size() != n {
			t.Fatalf("size %d after %d pushes", tr.size(), n)
		}
		for m := 1; m <= n; m++ {
			if got := tr.root(0, m); got != heads[m] {
				t.Fatalf("n=%d: head over %d leaves %x, oracle %x", n, m, got, heads[m])
			}
		}
		for m := 0; m < n; m++ {
			got, want := tr.path(m, n), inclusionPath(leaves[:n], m)
			if len(got) != len(want) {
				t.Fatalf("n=%d leaf %d: path length %d, oracle %d", n, m, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d leaf %d: path[%d] %x, oracle %x", n, m, i, got[i], want[i])
				}
			}
			if err := VerifyInclusion(leaves[m], uint64(m), uint64(n), got, heads[n]); err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, m, err)
			}
		}
	}
}

// TestTreeHeadKnownAnswers pins the RFC 6962 heads of Certificate
// Transparency's 8-leaf test vector at sizes 1..8, for the tree and the
// reference recursion alike.
func TestTreeHeadKnownAnswers(t *testing.T) {
	inputs := []string{"", "00", "10", "2021", "3031", "40414243",
		"5051525354555657", "606162636465666768696a6b6c6d6e6f"}
	want := []string{
		"6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
		"fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
		"aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
		"d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
		"4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
		"76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
		"ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
		"5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
	}
	var tr tree
	var leaves [][hashSize]byte
	for i, in := range inputs {
		data, err := hex.DecodeString(in)
		if err != nil {
			t.Fatal(err)
		}
		leaf := leafHash(data)
		tr.push(leaf)
		leaves = append(leaves, leaf)
		got, ref := tr.root(0, i+1), merkleRoot(leaves)
		if hex.EncodeToString(got[:]) != want[i] {
			t.Errorf("size %d: head %x, want %s", i+1, got, want[i])
		}
		if hex.EncodeToString(ref[:]) != want[i] {
			t.Errorf("size %d: oracle head %x, want %s", i+1, ref, want[i])
		}
	}
}
