package ledger

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// DefaultBatch is the default seal cadence: a seal record (size + tree
// head) is written after every DefaultBatch appends, and on Close.
const DefaultBatch = 8

// Entry is one appended result: which options (by canonical hash), which
// engine, and the SHA-256 of the canonical result JSON it produced.
type Entry struct {
	// Seq is the 1-based append position; the Merkle leaf index is Seq-1.
	Seq uint64 `json:"seq"`
	// Key is the canonical options hash of the request.
	Key string `json:"key"`
	// Engine is the EngineVersion that computed the result.
	Engine string `json:"engine"`
	// ResultSHA is the hex SHA-256 of the result's canonical JSON (ledger
	// provenance fields cleared; see blitzcoin.CanonicalResultSHA).
	ResultSHA string `json:"result_sha"`
}

// leafData appends the entry's canonical leaf encoding to b. Newlines are
// safe separators: keys and hashes are hex, engine versions never contain
// one.
func (e Entry) leafData(b []byte) []byte {
	b = append(append(b, e.Key...), '\n')
	b = append(append(b, e.Engine...), '\n')
	return append(b, e.ResultSHA...)
}

// leaf returns the entry's Merkle leaf hash.
func (e Entry) leaf() [hashSize]byte {
	var buf [leafBuf]byte
	return leafHash(e.leafData(buf[:0]))
}

// record is one JSONL line of the ledger file: an entry or a seal.
type record struct {
	Entry *Entry `json:"entry,omitempty"`
	Seal  *seal  `json:"seal,omitempty"`
}

// seal checkpoints the tree: the head over the first Size leaves. Replay
// on Open recomputes and compares every seal, so any in-place edit of a
// sealed entry (or of a seal itself) is detected as tampering. A seal may
// cover fewer entries than precede it; its head is still a fold of the
// subtrees the replayed prefix has completed.
type seal struct {
	Size uint64 `json:"size"`
	Root string `json:"root"`
}

// Ledger is the append-only results ledger. Open one per daemon; all
// methods are safe for concurrent use.
type Ledger struct {
	mu    sync.Mutex
	f     *os.File // nil for an in-memory ledger
	batch int
	tree  tree
	// head is the tree head over every leaf (zero while the tree is empty).
	head [hashSize]byte
	// entries is dense by leaf index (entries[i].Seq == i+1).
	entries []Entry
	// latest maps key+"\x00"+engine to the newest leaf index for it.
	latest   map[string]int
	unsealed int
}

// Open opens (or creates) the ledger at path, replaying and verifying the
// existing records. An empty path opens an in-memory ledger — same
// semantics, nothing persisted. batch <= 0 selects DefaultBatch.
func Open(path string, batch int) (*Ledger, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	l := &Ledger{batch: batch, latest: make(map[string]int)}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := l.replay(f); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	l.f = f
	return l, nil
}

// replay rebuilds the tree from the file and verifies every seal. Entries
// only push their leaf; heads are folded at seals and once at the end, so
// replay is linear in the file.
func (l *Ledger) replay(f *os.File) error {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("ledger: line %d: %w", line, err)
		}
		switch {
		case rec.Entry != nil:
			e := *rec.Entry
			if e.Seq != uint64(l.tree.size())+1 {
				return fmt.Errorf("ledger: line %d: entry seq %d, want %d (truncated or reordered file)",
					line, e.Seq, l.tree.size()+1)
			}
			l.append(e)
		case rec.Seal != nil:
			s := *rec.Seal
			if s.Size == 0 || s.Size > uint64(l.tree.size()) {
				return fmt.Errorf("ledger: line %d: seal over %d entries, have %d", line, s.Size, l.tree.size())
			}
			root := l.tree.root(0, int(s.Size))
			if got := hex.EncodeToString(root[:]); got != s.Root {
				return fmt.Errorf("ledger: line %d: seal root mismatch over %d entries — ledger tampered or corrupt (have %s, sealed %s)",
					line, s.Size, got, s.Root)
			}
			l.unsealed = l.tree.size() - int(s.Size)
		default:
			return fmt.Errorf("ledger: line %d: record is neither entry nor seal", line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n := l.tree.size(); n > 0 {
		l.head = l.tree.root(0, n)
	}
	return nil
}

// append adds the entry to the in-memory tree (no file I/O) without
// refolding the head.
func (l *Ledger) append(e Entry) {
	idx := l.tree.size()
	l.tree.push(e.leaf())
	l.entries = append(l.entries, e)
	l.latest[e.Key+"\x00"+e.Engine] = idx
	l.unsealed++
}

// writeRecord appends one JSONL line to the file (no-op in memory).
func (l *Ledger) writeRecord(rec record) error {
	if l.f == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = l.f.Write(append(b, '\n'))
	return err
}

// Append records a completed result and returns its 1-based sequence and
// the tree head after the append. Re-appending the latest identical
// (key, engine, resultSHA) is a no-op returning the existing sequence —
// recomputations after a cache eviction are byte-identical by the
// engine's determinism guarantee and need no second entry.
func (l *Ledger) Append(key, engine, resultSHA string) (seq uint64, root string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if idx, ok := l.latest[key+"\x00"+engine]; ok && l.entries[idx].ResultSHA == resultSHA {
		return l.entries[idx].Seq, hex.EncodeToString(l.head[:]), nil
	}
	e := Entry{Seq: uint64(l.tree.size()) + 1, Key: key, Engine: engine, ResultSHA: resultSHA}
	if err := l.writeRecord(record{Entry: &e}); err != nil {
		return 0, "", err
	}
	l.append(e)
	l.head = l.tree.root(0, l.tree.size())
	if l.unsealed >= l.batch {
		if err := l.sealLocked(); err != nil {
			return 0, "", err
		}
	}
	return e.Seq, hex.EncodeToString(l.head[:]), nil
}

// sealLocked writes a seal over the current tree and syncs the file.
func (l *Ledger) sealLocked() error {
	s := seal{Size: uint64(l.tree.size()), Root: hex.EncodeToString(l.head[:])}
	if err := l.writeRecord(record{Seal: &s}); err != nil {
		return err
	}
	l.unsealed = 0
	if l.f != nil {
		return l.f.Sync()
	}
	return nil
}

// Size reports the number of ledger entries.
func (l *Ledger) Size() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(l.tree.size())
}

// Root returns the current tree size and head (empty root at size 0).
func (l *Ledger) Root() (size uint64, root string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.tree.size()
	if n == 0 {
		return 0, ""
	}
	return uint64(n), hex.EncodeToString(l.head[:])
}

// Proof returns an inclusion proof for the newest entry recorded under
// (key, engine), against the current tree head.
func (l *Ledger) Proof(key, engine string) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.latest[key+"\x00"+engine]
	if !ok {
		return Proof{}, fmt.Errorf("ledger: no entry for options %s under engine %s", shortKey(key), engine)
	}
	e := l.entries[idx]
	n := l.tree.size()
	path := l.tree.path(idx, n)
	hexPath := make([]string, len(path))
	for i, p := range path {
		hexPath[i] = hex.EncodeToString(p[:])
	}
	return Proof{
		Key:       e.Key,
		Engine:    e.Engine,
		ResultSHA: e.ResultSHA,
		Seq:       e.Seq,
		TreeSize:  uint64(n),
		Root:      hex.EncodeToString(l.head[:]),
		Path:      hexPath,
	}, nil
}

// Close seals any unsealed tail and closes the file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.unsealed > 0 && l.tree.size() > 0 {
		if err := l.sealLocked(); err != nil {
			return err
		}
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Proof is a self-contained inclusion proof: everything a client needs to
// check that a result was recorded, without access to the ledger file.
type Proof struct {
	Key       string `json:"key"`
	Engine    string `json:"engine"`
	ResultSHA string `json:"result_sha"`
	// Seq is the entry's 1-based append position (leaf index Seq-1).
	Seq      uint64 `json:"seq"`
	TreeSize uint64 `json:"tree_size"`
	// Root is the hex tree head the proof folds to.
	Root string `json:"root"`
	// Path is the hex audit path, leaf-adjacent sibling first.
	Path []string `json:"path"`
}

// Verify recomputes the leaf from the proof's entry fields and folds the
// path, checking it lands on Root. A proof over a tampered result (or a
// forged path) fails.
func (p Proof) Verify() error {
	if p.Seq == 0 {
		return fmt.Errorf("ledger: proof has no sequence")
	}
	leaf := Entry{Key: p.Key, Engine: p.Engine, ResultSHA: p.ResultSHA}.leaf()
	root, err := hexHash(p.Root)
	if err != nil {
		return fmt.Errorf("ledger: bad proof root: %w", err)
	}
	path := make([][hashSize]byte, len(p.Path))
	for i, s := range p.Path {
		if path[i], err = hexHash(s); err != nil {
			return fmt.Errorf("ledger: bad proof path element %d: %w", i, err)
		}
	}
	return VerifyInclusion(leaf, p.Seq-1, p.TreeSize, path, root)
}

// hexHash decodes a hex-encoded sha256 digest.
func hexHash(s string) ([hashSize]byte, error) {
	var out [hashSize]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, err
	}
	if len(b) != hashSize {
		return out, fmt.Errorf("digest is %d bytes, want %d", len(b), hashSize)
	}
	copy(out[:], b)
	return out, nil
}

// shortKey abbreviates an options hash for error text.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
