package ledger

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestProofRoundTrip: every proof generated for every leaf of trees of
// size 1..33 verifies against the root — the property check behind the
// path-generation/verification pair.
func TestProofRoundTrip(t *testing.T) {
	l, err := Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 33; n++ {
		key := fmt.Sprintf("hash-%04d", n)
		seq, root, err := l.Append(key, "6", fmt.Sprintf("sha-%04d", n))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(n) {
			t.Fatalf("append %d: seq %d", n, seq)
		}
		if root == "" {
			t.Fatalf("append %d: empty root", n)
		}
		// Every entry so far must still prove against the new head.
		for m := 1; m <= n; m++ {
			p, err := l.Proof(fmt.Sprintf("hash-%04d", m), "6")
			if err != nil {
				t.Fatalf("proof %d/%d: %v", m, n, err)
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("verify %d of %d: %v", m, n, err)
			}
			if p.Root != root {
				t.Fatalf("proof %d/%d: root %s, head %s", m, n, p.Root, root)
			}
		}
	}
}

// TestProofTamperDetection: altering any field of a valid proof breaks
// verification.
func TestProofTamperDetection(t *testing.T) {
	l, _ := Open("", 0)
	for i := 1; i <= 10; i++ {
		if _, _, err := l.Append(fmt.Sprintf("h%d", i), "6", fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := l.Proof("h4", "6")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("genuine proof rejected: %v", err)
	}

	mutations := map[string]func(Proof) Proof{
		"result sha": func(p Proof) Proof { p.ResultSHA = "forged"; return p },
		"key":        func(p Proof) Proof { p.Key = "other"; return p },
		"engine":     func(p Proof) Proof { p.Engine = "5"; return p },
		"seq":        func(p Proof) Proof { p.Seq = 5; return p },
		"tree size":  func(p Proof) Proof { p.TreeSize = 4; return p },
		"root":       func(p Proof) Proof { p.Root = strings.Repeat("ab", 32); return p },
		"path":       func(p Proof) Proof { p.Path = p.Path[:len(p.Path)-1]; return p },
	}
	for name, mut := range mutations {
		if err := mut(p).Verify(); err == nil {
			t.Errorf("tampered %s verified", name)
		}
	}
}

// TestLedgerReopenReplays: entries and seals survive a close/reopen at
// sizes on both sides of powers of two and at several seal cadences —
// size, root and every key's proof are unchanged and still verify.
func TestLedgerReopenReplays(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 64, 65, 257} {
		for _, batch := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("n%d/batch%d", n, batch), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ledger.jsonl")
				l, err := Open(path, batch)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= n; i++ {
					if _, _, err := l.Append(fmt.Sprintf("h%d", i), "6", fmt.Sprintf("s%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				_, rootBefore := l.Root()
				proofs := make([]Proof, n)
				for i := range proofs {
					if proofs[i], err = l.Proof(fmt.Sprintf("h%d", i+1), "6"); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}

				l2, err := Open(path, batch)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer l2.Close()
				if size, root := l2.Root(); size != uint64(n) || l2.Size() != uint64(n) || root != rootBefore {
					t.Fatalf("reopened at size %d root %s, closed at %d root %s", size, root, n, rootBefore)
				}
				for i, before := range proofs {
					p, err := l2.Proof(fmt.Sprintf("h%d", i+1), "6")
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(p, before) {
						t.Fatalf("proof of h%d drifted across reopen: %+v vs %+v", i+1, p, before)
					}
					if err := p.Verify(); err != nil {
						t.Fatalf("reopened proof of h%d: %v", i+1, err)
					}
				}
			})
		}
	}
}

// shortSealFile is a hand-written ledger whose one seal covers the first
// two of the three entries that precede it.
const shortSealFile = `{"entry":{"seq":1,"key":"h1","engine":"6","result_sha":"s1"}}
{"entry":{"seq":2,"key":"h2","engine":"6","result_sha":"s2"}}
{"entry":{"seq":3,"key":"h3","engine":"6","result_sha":"s3"}}
{"seal":{"size":2,"root":"` + shortSealRoot + `"}}
`

// shortSealRoot is the RFC 6962 head over the first two entries.
const shortSealRoot = "1b22abe8706c03bc758b959ade92e79bd7fba4a9d0ddda2f5f245ec7a56355ee"

// TestLedgerShortSeal: a seal over fewer entries than precede it is
// accepted when its root matches that prefix, and rejected as tampering
// when it does not.
func TestLedgerShortSeal(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	if err := os.WriteFile(good, []byte(shortSealFile), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(good, 0)
	if err != nil {
		t.Fatalf("short seal rejected: %v", err)
	}
	if l.Size() != 3 {
		t.Fatalf("size %d, want 3", l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.jsonl")
	wrong := strings.Replace(shortSealFile, shortSealRoot, strings.Repeat("ab", 32), 1)
	if err := os.WriteFile(bad, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, 0); err == nil || !strings.Contains(err.Error(), "tampered") {
		t.Fatalf("wrong short-seal root opened: err=%v", err)
	}
}

// TestLedgerFileTamperDetected: editing a sealed entry in place makes the
// next Open fail seal verification.
func TestLedgerFileTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, _, err := l.Append(fmt.Sprintf("h%d", i), "6", fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"result_sha":"s2"`, `"result_sha":"sX"`, 1)
	if tampered == string(raw) {
		t.Fatal("test did not find the entry to tamper")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 2); err == nil || !strings.Contains(err.Error(), "tampered") {
		t.Fatalf("tampered ledger opened: err=%v", err)
	}
}

// TestAppendDeduplicatesIdenticalResult: re-appending the same
// (key, engine, sha) returns the original sequence without growing the
// tree; a different sha for the same key appends a new entry that
// supersedes the old one for proofs.
func TestAppendDeduplicatesIdenticalResult(t *testing.T) {
	l, _ := Open("", 0)
	seq1, _, err := l.Append("h", "6", "s")
	if err != nil {
		t.Fatal(err)
	}
	seq2, _, err := l.Append("h", "6", "s")
	if err != nil {
		t.Fatal(err)
	}
	if seq1 != seq2 || l.Size() != 1 {
		t.Fatalf("duplicate append: seqs %d/%d, size %d", seq1, seq2, l.Size())
	}
	seq3, _, err := l.Append("h", "6", "different")
	if err != nil {
		t.Fatal(err)
	}
	if seq3 != 2 || l.Size() != 2 {
		t.Fatalf("superseding append: seq %d, size %d", seq3, l.Size())
	}
	p, err := l.Proof("h", "6")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != seq3 || p.ResultSHA != "different" {
		t.Fatalf("proof serves stale entry: %+v", p)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

// ledgerFileSHA is the SHA-256 of the file TestLedgerFileBytesPinned
// writes. The file format is part of the ledger's contract: a
// reimplementation of the tree must seal the same roots in the same bytes.
const ledgerFileSHA = "6d9b9b39f58586c12673acc616f1590d1f84bbe5f40813f3b3c27b37ff23b8ca"

// TestLedgerFileBytesPinned: a fixed append sequence — with a duplicate,
// a superseding result and a tail sealed on close — writes the same
// bytes it always has.
func TestLedgerFileBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	appendOK := func(key, sha string) {
		if _, _, err := l.Append(key, "6", sha); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 20; i++ {
		appendOK(fmt.Sprintf("%064x", i), fmt.Sprintf("%064x", 1000+i))
	}
	appendOK(fmt.Sprintf("%064x", 5), fmt.Sprintf("%064x", 1005))
	appendOK(fmt.Sprintf("%064x", 7), fmt.Sprintf("%064x", 7))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != ledgerFileSHA {
		t.Fatalf("ledger file sha256 %s, pinned %s:\n%s", got, ledgerFileSHA, raw)
	}
}

// TestLedgerConcurrentUse: appends from several goroutines interleaved
// with head and proof reads leave a ledger whose head is the reference
// head over its entries and whose every proof verifies.
func TestLedgerConcurrentUse(t *testing.T) {
	l, _ := Open("", 4)
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("h%d-%d", w, i)
				if _, _, err := l.Append(key, "6", "s"+key); err != nil {
					t.Error(err)
					return
				}
				l.Root()
				if _, err := l.Proof(key, "6"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	size, root := l.Root()
	if size != writers*each {
		t.Fatalf("size %d, want %d", size, writers*each)
	}
	l.mu.Lock()
	head := merkleRoot(oracleLeaves(l.entries))
	l.mu.Unlock()
	if want := fmt.Sprintf("%x", head); root != want {
		t.Fatalf("root %s, oracle %s", root, want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			p, err := l.Proof(fmt.Sprintf("h%d-%d", w, i), "6")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
