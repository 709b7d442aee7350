package ledger

import (
	"fmt"
	"path/filepath"
	"testing"
)

// benchSizes are the ledger sizes the append and proof benchmarks run at.
var benchSizes = []int{1_000, 10_000, 100_000}

// benchHex returns a 64-hex-digit digest-shaped string for i, the shape
// of the options hashes and result SHAs blitzd appends.
func benchHex(tag string, i int) string {
	return fmt.Sprintf("%s%062x", tag, i)
}

// filledLedger returns an in-memory ledger holding n distinct entries.
func filledLedger(b *testing.B, n int) *Ledger {
	l, err := Open("", 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := l.Append(benchHex("fe", i), "6", benchHex("5a", i)); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// BenchmarkLedgerAppend times one new entry on an in-memory ledger of
// n entries (no file I/O): hashing, the tree update and the head. The
// ledger is refilled every n appends so it stays between n and 2n.
func BenchmarkLedgerAppend(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			// Keys cycle through 1024 and SHAs through 1023, so no append
			// repeats its key's latest record and none is deduplicated.
			keys, shas := make([]string, 1024), make([]string, 1023)
			for i := range keys {
				keys[i] = benchHex("ab", i)
			}
			for i := range shas {
				shas[i] = benchHex("cd", i)
			}
			b.ReportAllocs()
			var l *Ledger
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					b.StopTimer()
					l = filledLedger(b, n)
					b.StartTimer()
				}
				if _, _, err := l.Append(keys[i%len(keys)], "6", shas[i%len(shas)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLedgerOpen times replaying and verifying a ledger file of n
// entries sealed every DefaultBatch appends.
func BenchmarkLedgerOpen(b *testing.B) {
	for _, n := range []int{2_000, 10_000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "ledger.jsonl")
			l, err := Open(path, DefaultBatch)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, _, err := l.Append(benchHex("fe", i), "6", benchHex("5a", i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := Open(path, DefaultBatch)
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLedgerProof times one inclusion proof against the head of an
// in-memory ledger of n entries.
func BenchmarkLedgerProof(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			l := filledLedger(b, n)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = benchHex("fe", i*n/len(keys))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Proof(keys[i%len(keys)], "6"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
