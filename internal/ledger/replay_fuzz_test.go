package ledger

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLedgerReplay feeds arbitrary bytes to Open as a ledger file. Open
// must never panic; it either refuses the file or yields a ledger whose
// head equals the reference recursion's over the replayed entries, whose
// every seal matched the reference head over its prefix, and whose proof
// for every stored (key, engine) verifies against that head.
func FuzzLedgerReplay(f *testing.F) {
	valid := string(validLedgerFile(f))
	lines := strings.SplitAfter(valid, "\n")
	half := strings.Join(lines[:len(lines)/2], "")
	for _, seed := range []string{
		valid,
		shortSealFile,
		half,                            // truncated at a record boundary
		half + lines[len(lines)/2][:20], // truncated mid-record
		valid + `{"seal":{"size":0,"root":""}}` + "\n",      // empty seal
		valid + `{"seal":{"size":99,"root":""}}` + "\n",     // seal beyond the entries
		strings.Replace(valid, `"root":"`, `"root":"00`, 1), // wrong root
		lines[1] + lines[0] + strings.Join(lines[2:], ""),   // out-of-order seq
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, 0)
		if err != nil {
			return
		}
		defer l.Close()

		entries, seals := parseLedgerFile(t, data)
		leaves := oracleLeaves(entries)
		for _, s := range seals {
			head := merkleRoot(leaves[:s.Size])
			if hex.EncodeToString(head[:]) != s.Root {
				t.Fatalf("accepted a seal over %d entries with root %s, oracle %x", s.Size, s.Root, head)
			}
		}
		size, root := l.Root()
		if size != uint64(len(entries)) || l.Size() != size {
			t.Fatalf("ledger size %d/%d, file has %d entries", size, l.Size(), len(entries))
		}
		if size == 0 {
			return
		}
		if head := merkleRoot(leaves); root != hex.EncodeToString(head[:]) {
			t.Fatalf("root %s, oracle %x", root, head)
		}
		for _, e := range entries {
			p, err := l.Proof(e.Key, e.Engine)
			if err != nil {
				t.Fatalf("no proof for a stored entry: %v", err)
			}
			if p.Root != root || p.TreeSize != size {
				t.Fatalf("proof against %d/%s, head %d/%s", p.TreeSize, p.Root, size, root)
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("proof for seq %d: %v", p.Seq, err)
			}
		}
	})
}

// validLedgerFile writes a ten-entry ledger sealed every three appends
// and on close, and returns its bytes.
func validLedgerFile(tb testing.TB) []byte {
	path := filepath.Join(tb.TempDir(), "ledger.jsonl")
	l, err := Open(path, 3)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, _, err := l.Append(fmt.Sprintf("h%d", i), "6", fmt.Sprintf("s%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// parseLedgerFile splits a file Open accepted into its entries and seals.
func parseLedgerFile(t *testing.T, data []byte) ([]Entry, []seal) {
	var entries []Entry
	var seals []seal
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("Open accepted an unparseable line: %v", err)
		}
		switch {
		case rec.Entry != nil:
			entries = append(entries, *rec.Entry)
		case rec.Seal != nil:
			if rec.Seal.Size == 0 || rec.Seal.Size > uint64(len(entries)) {
				t.Fatalf("Open accepted a seal over %d of %d entries", rec.Seal.Size, len(entries))
			}
			seals = append(seals, *rec.Seal)
		}
	}
	return entries, seals
}
