package store

import (
	"bytes"
	"container/list"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

func openT(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, "test-engine", maxBytes, quiet())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	blob := []byte(`{"rows":[1,2,3]}`)
	if err := s.Put("hash-1", "exchange", blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("hash-1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v; want the stored bytes", got, ok)
	}
	if _, ok := s.Get("hash-2"); ok {
		t.Fatal("Get returned a miss key")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// No temp-file residue after a clean write.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "tmp-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

func TestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	blob := []byte(`{"meta":{"options_hash":"abc"}}`)
	if err := s.Put("hash-1", "figure", blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	// A new store over the same directory serves the same bytes, both
	// before the warm scan finishes (direct probe) and after.
	s2 := openT(t, dir, 0)
	got, ok := s2.Get("hash-1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("restart Get = %q, %v", got, ok)
	}
	s2.Close() // wait for warm
	got, ok = s2.Get("hash-1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("post-warm Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || !st.Warmed {
		t.Errorf("post-warm stats = %+v", st)
	}
}

// TestHasIsAProbe: Has answers from the index, or from the sidecar on
// disk while the warm scan has not indexed the entry yet, and never moves
// the hit and miss counters or indexes what it finds.
func TestHasIsAProbe(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	if err := s.Put("hash-1", "exchange", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// unwarmed is the store as Open leaves it before its scan runs.
	unwarmed := func(engine string) *Store {
		return &Store{dir: dir, engine: engine, log: quiet(), ll: list.New(), items: make(map[string]*list.Element)}
	}
	warm := openT(t, dir, 0)
	warm.Close() // waits for the scan
	for _, c := range []struct {
		name  string
		s     *Store
		key   string
		want  bool
		entry int
	}{
		{"indexed", warm, "hash-1", true, 1},
		{"indexed miss", warm, "hash-2", false, 1},
		{"on disk", unwarmed("test-engine"), "hash-1", true, 0},
		{"not on disk", unwarmed("test-engine"), "hash-2", false, 0},
		{"other engine", unwarmed("other-engine"), "hash-1", false, 0},
	} {
		if got := c.s.Has(c.key); got != c.want {
			t.Errorf("%s: Has(%s) = %v, want %v", c.name, c.key, got, c.want)
		}
		if st := c.s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != c.entry {
			t.Errorf("%s: stats after Has = %+v, want no hits, no misses, %d entries", c.name, st, c.entry)
		}
	}
}

func TestEngineNamespacing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "engine-1", 0, quiet())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("hash-1", "exchange", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, "engine-2", 0, quiet())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("hash-1"); ok {
		t.Fatal("engine-2 store served an engine-1 blob")
	}
}

func TestCorruptBlobDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	if err := s.Put("hash-1", "exchange", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip the blob on disk behind the store's back.
	digest := s.digest("hash-1")
	if err := os.WriteFile(s.blobPath(digest), []byte("evil bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("hash-1"); ok {
		t.Fatal("Get served a corrupt blob")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The pair is gone from disk too.
	if _, err := os.Stat(s.blobPath(digest)); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still on disk: %v", err)
	}
}

func TestGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	blob := bytes.Repeat([]byte("x"), 100)
	s := openT(t, dir, 250) // fits two 100-byte blobs, not three
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("hash-%d", i), "exchange", blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("hash-0"); ok {
		t.Fatal("oldest entry survived GC")
	}
	for _, k := range []string{"hash-1", "hash-2"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted, want newest two kept", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 250 {
		t.Errorf("stats = %+v", st)
	}

	// Touching hash-1 then inserting another entry evicts hash-2, not
	// the freshly used hash-1.
	if _, ok := s.Get("hash-1"); !ok {
		t.Fatal("hash-1 missing")
	}
	if err := s.Put("hash-3", "exchange", blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("hash-2"); ok {
		t.Fatal("LRU eviction ignored recency")
	}
	if _, ok := s.Get("hash-1"); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestWarmGCAndOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	blob := bytes.Repeat([]byte("y"), 100)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("hash-%d", i), "exchange", blob); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crashed write: a stray temp file and an orphan blob.
	if err := os.WriteFile(filepath.Join(dir, "tmp-crashed"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "ff")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, strings.Repeat("f", 64)+".blob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen with a bound that only fits two entries: warm must index,
	// then GC down to the bound.
	s2 := openT(t, dir, 250)
	s2.Close()
	st := s2.Stats()
	if st.Entries != 2 || st.Bytes > 250 {
		t.Errorf("post-warm stats = %+v, want 2 entries within 250 bytes", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-crashed")); !os.IsNotExist(err) {
		t.Error("temp residue survived the warm sweep")
	}
}

// TestWarmConcurrentWithTraffic races the boot scan against incoming
// probes, gets and puts — the shape of a daemon restarted under live
// traffic. Run under -race this is the boot/request data-race gate.
func TestWarmConcurrentWithTraffic(t *testing.T) {
	dir := t.TempDir()
	seed := openT(t, dir, 0)
	blob := bytes.Repeat([]byte("z"), 64)
	const preloaded = 50
	for i := 0; i < preloaded; i++ {
		if err := seed.Put(fmt.Sprintf("old-%d", i), "exchange", blob); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	s := openT(t, dir, 0) // warm scan races the traffic below
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < preloaded; i++ {
				if !s.Has(fmt.Sprintf("old-%d", (i+g)%preloaded)) {
					t.Errorf("goroutine %d: Has(old-%d) = false", g, (i+g)%preloaded)
					return
				}
				if b, ok := s.Get(fmt.Sprintf("old-%d", i)); !ok || !bytes.Equal(b, blob) {
					t.Errorf("goroutine %d: old-%d = %v, %v", g, i, len(b), ok)
					return
				}
				if err := s.Put(fmt.Sprintf("new-%d-%d", g, i), "exchange", blob); err != nil {
					t.Errorf("goroutine %d: put: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	st := s.Stats()
	if want := preloaded + 8*preloaded; st.Entries != want {
		t.Errorf("entries = %d, want %d", st.Entries, want)
	}
}

func TestPutOverwrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	if err := s.Put("hash-1", "exchange", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("hash-1", "exchange", []byte("second, longer")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("hash-1")
	if !ok || string(got) != "second, longer" {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("second, longer")) {
		t.Errorf("stats after overwrite = %+v", st)
	}
}
