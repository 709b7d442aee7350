package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/server"
	"blitzcoin/internal/store"
	"blitzcoin/internal/tenant"
)

// serveParams sizes one serve-mix pass.
type serveParams struct {
	fixture  int // results computed before set-up
	hot      int // fixture keys read Zipf-distributed and kept memory-resident
	blocks   int
	perBlock int // requests per block
}

// Nominal serve-mix block length on the reference host, in seconds.
const serveBlockS = 0.17

// Request classes of serve-mix and their shares of a block, per mille.
// Hot reads are the median's class and the miss-like classes the p99's:
// hot reads are 78% of requests and the fastest, so the median sits
// inside them; misses, pairs and shards together are 2% and the slowest,
// so the p99 sits at their median, far from any class boundary and from
// the tail of fsync latency every computed result pays.
const (
	classHot       = "memory"
	classCold      = "disk"
	classComputed  = "computed"
	classCoalesced = "coalesced"
	classShard     = "shard"

	shareCold  = 200
	shareMiss  = 10
	sharePair  = 3 // pairs: two requests each
	shareShard = 2 // two half-sweep shard requests each
)

// Tenants of the key file: limits far above any load the benchmark offers.
var benchTenants = []tenant.Config{
	{Name: "interactive", Key: "perfbench-interactive", RatePerSec: 1e6, Burst: 1e6, QuotaSweeps: 1e9, QuotaBytes: 1 << 50, Priority: "interactive"},
	{Name: "batch", Key: "perfbench-batch", RatePerSec: 1e6, Burst: 1e6, QuotaSweeps: 1e9, QuotaBytes: 1 << 50, Priority: "batch"},
}

// unit is one step a caller performs: a read, a miss, a coalesced pair or
// a shard pair.
type unit struct {
	kind string // "hot", "cold", "miss", "pair", "shard"
	req  blitzcoin.Request
	body []byte
	key  string // tenant key
}

func fixtureRequest(seed uint64, i int) blitzcoin.Request {
	return blitzcoin.Request{Trials: 1 + i%2, Exchange: &blitzcoin.ExchangeOptions{
		Dim: 4 + i%3, Torus: true, RandomPairing: true, Mode: blitzcoin.OneWay, Seed: mix(seed, 10, uint64(i)),
	}}
}

// missRequest is a fresh key: a 4-way exchange at d = 8 from a random
// placement, a few milliseconds of compute per two trials, so compute
// rather than the fsyncs every computed result pays dominates a miss.
func missRequest(seed uint64, tag, b, j int, dynamic bool, trials int) blitzcoin.Request {
	return blitzcoin.Request{Trials: trials, Exchange: &blitzcoin.ExchangeOptions{
		Dim: 8, Torus: true, RandomPairing: true, Mode: blitzcoin.FourWay, Init: blitzcoin.InitRandom,
		DynamicTiming: dynamic, Seed: mix(seed, uint64(tag), uint64(b), uint64(j)),
	}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// readGen draws the reads of serve-mix. Hot reads are Zipf-distributed
// over the first hot fixture keys; a key not read for refreshGap hot reads
// is read next, so every hot key stays well inside the LRU whatever order
// concurrent callers reach it in. Cold reads walk the other fixture keys
// in a seeded cyclic order, so a cold key returns only after far more
// than the cache's 256 entries have been touched: it is always a disk hit.
// Both outcomes are thereby fixed by the seed, not by thread timing.
type readGen struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	last   []int
	pos    int
	rr     int
	cold   []int
	cursor int
}

const refreshGap = 64

func newReadGen(seed uint64, p serveParams) *readGen {
	r := rand.New(rand.NewSource(int64(mix(seed, 30) >> 1)))
	g := &readGen{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(p.hot-1)), last: make([]int, p.hot)}
	g.cold = make([]int, 0, p.fixture-p.hot)
	for i := p.hot; i < p.fixture; i++ {
		g.cold = append(g.cold, i)
	}
	r.Shuffle(len(g.cold), func(i, j int) { g.cold[i], g.cold[j] = g.cold[j], g.cold[i] })
	return g
}

func (g *readGen) hot() int {
	g.pos++
	k := g.rr
	g.rr = (g.rr + 1) % len(g.last)
	if g.pos-g.last[k] < refreshGap {
		k = int(g.zipf.Uint64())
	}
	g.last[k] = g.pos
	return k
}

func (g *readGen) nextCold() int {
	k := g.cold[g.cursor%len(g.cold)]
	g.cursor++
	return k
}

// serveBlock generates block b: the class of each position is shuffled
// by the seed, and reads draw their key in position order, so the gaps the
// read generator guarantees hold in the order requests are sent.
func serveBlock(seed uint64, p serveParams, b int, g *readGen, fixture [][]byte) []unit {
	nCold := p.perBlock * shareCold / 1000
	nMiss := p.perBlock * shareMiss / 1000
	nPair := max(1, p.perBlock*sharePair/1000)
	nShard := max(1, p.perBlock*shareShard/1000)
	nHot := p.perBlock - nCold - nMiss - 2*nPair - 2*nShard
	var kinds []string
	for _, k := range []struct {
		kind string
		n    int
	}{{"hot", nHot}, {"cold", nCold}, {"miss", nMiss}, {"pair", nPair}, {"shard", nShard}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	r := rand.New(rand.NewSource(int64(mix(seed, 31, uint64(b)) >> 1)))
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	keys := []string{benchTenants[0].Key, benchTenants[1].Key}
	us := make([]unit, len(kinds))
	for i, kind := range kinds {
		u := unit{kind: kind, key: keys[i%2]}
		switch kind {
		case "hot":
			u.body = fixture[g.hot()]
		case "cold":
			u.body = fixture[g.nextCold()]
		case "miss":
			u.req = missRequest(seed, 20, b, i, false, 2)
		case "pair":
			u.req = missRequest(seed, 21, b, i, true, 2)
		case "shard":
			u.req = missRequest(seed, 22, b, i, false, 4)
		}
		if kind == "miss" || kind == "pair" {
			u.body = mustJSON(u.req)
		}
		us[i] = u
	}
	return us
}

// serveState is the on-disk state blitzd would run with.
type serveState struct {
	dir, keys, ledgerPath, storeDir string
}

func newServeState(dir string) (serveState, error) {
	st := serveState{dir: dir, keys: filepath.Join(dir, "keys.json"), ledgerPath: filepath.Join(dir, "ledger.jsonl"), storeDir: filepath.Join(dir, "store")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	return st, os.WriteFile(st.keys, mustJSON(tenant.KeyFile{Tenants: benchTenants}), 0o644)
}

// daemon is one opened server with its ledger and store.
type daemon struct {
	srv *server.Server
	h   http.Handler
	led *ledger.Ledger
	st  *store.Store
	reg *tenant.Registry
}

func (d *daemon) close() error {
	d.st.Close()
	return d.led.Close()
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// openDaemon opens the state the way blitzd's -keys, -ledger and -store
// flags do, waits for the store's warm scan, and builds the server with
// the default cache bounds.
func openDaemon(s serveState, run server.RunFunc) (*daemon, error) {
	reg, err := tenant.Load(s.keys)
	if err != nil {
		return nil, err
	}
	led, err := ledger.Open(s.ledgerPath, 0)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(s.storeDir, blitzcoin.EngineVersion, 256<<20, quietLog)
	if err != nil {
		led.Close()
		return nil, err
	}
	for !st.Stats().Warmed {
		time.Sleep(100 * time.Microsecond)
	}
	srv := server.New(server.Config{Logger: quietLog, Tenants: reg, Ledger: led, Store: st, Run: run})
	return &daemon{srv: srv, h: srv.Handler(), led: led, st: st, reg: reg}, nil
}

// call sends one request through the handler and returns the recorder
// and the ServeHTTP time in ms.
func call(h http.Handler, method, path string, body []byte, key string) (*httptest.ResponseRecorder, float64) {
	rec, _, ms := timedCall(h, method, path, body, key)
	return rec, ms
}

func timedCall(h http.Handler, method, path string, body []byte, key string) (*httptest.ResponseRecorder, time.Time, float64) {
	// The methods and paths are the benchmark's constants; NewRequest
	// fails only on an invalid method or URL.
	req, _ := http.NewRequest(method, path, bytes.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, t0, msSince(t0)
}

// envelope is the part of a /v1/sweep or /v1/shard response the checks
// read. The payload (last field of both envelopes) is cut out of the body
// rather than decoded, to keep the caller's own cost small.
type envelope struct {
	RequestHash string `json:"request_hash"`
	Cached      bool   `json:"cached"`
	Tier        string `json:"tier"`
	Coalesced   bool   `json:"coalesced"`
	payload     []byte
}

func splitEnvelope(body []byte, field string) (envelope, error) {
	var e envelope
	marker := []byte(`"` + field + `": `)
	i := bytes.Index(body, marker)
	if i < 0 {
		return e, fmt.Errorf("response has no %q field", field)
	}
	head := bytes.TrimRight(body[:i], " \n\t,")
	if err := json.Unmarshal(append(head[:len(head):len(head)], '}'), &e); err != nil {
		return e, err
	}
	rest := bytes.TrimRight(body[i+len(marker):], " \n\t")
	if len(rest) == 0 || rest[len(rest)-1] != '}' {
		return e, fmt.Errorf("response does not end with the envelope's brace")
	}
	e.payload = bytes.TrimRight(rest[:len(rest)-1], " \n\t")
	return e, nil
}

// servePass is one serve-mix pass: the fixture, the reopened daemon, the
// timed blocks and the checks.
type servePass struct {
	p      serveParams
	seed   uint64
	dir    string
	state  serveState
	tr     *tracer
	d      *daemon
	gen    *readGen
	fix    [][]byte // fixture request bodies
	seedOf sync.Map // pair request seed -> struct{}

	pairMu      sync.Mutex
	pairsIssued atomic.Int64

	mu       sync.Mutex
	lat      [][]float64 // per block, raw ms per request
	byClass  map[string]int
	sums     map[string]uint64 // request hash -> result bytes hash
	computed map[string]computedKey
	shards   []shardPair
	failed   int
	errs     []string
}

type computedKey struct {
	req  blitzcoin.Request
	body []byte // served result bytes
}

type shardPair struct {
	req    blitzcoin.Request
	halves [2][]byte
}

var resultSeed = maphash.MakeSeed()

func (s *servePass) fail(format string, a ...any) {
	s.mu.Lock()
	s.failed++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, a...))
	}
	s.mu.Unlock()
}

// setup reopens the populated state setupReps times, timing each, keeps
// the last daemon, and reads every hot key once (untimed) so hot reads
// start memory-resident. It returns the set-up blocks.
func (s *servePass) setup(c *clock) ([]int, error) {
	var idx []int
	for r := 0; r < setupReps; r++ {
		if s.d != nil {
			if err := s.d.close(); err != nil {
				return nil, err
			}
		}
		var oerr error
		b, err := c.block(func() { s.d, oerr = openDaemon(s.state, s.gatedRun) })
		if err != nil {
			return nil, err
		}
		if oerr != nil {
			return nil, oerr
		}
		idx = append(idx, b)
	}
	for k := 0; k < s.p.hot; k++ {
		if rec, _ := call(s.d.h, http.MethodPost, "/v1/sweep", s.fix[k], benchTenants[0].Key); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up read: status %d", rec.Code)
		}
	}
	c.untimed()
	return idx, nil
}

// buildFixture writes the key file and computes the fixture through a
// first daemon, so the store, the ledger and the stamped results are real,
// and closes it.
func (s *servePass) buildFixture() error {
	var err error
	if s.state, err = newServeState(s.dir); err != nil {
		return err
	}
	d, err := openDaemon(s.state, nil)
	if err != nil {
		return err
	}
	s.fix = make([][]byte, s.p.fixture)
	for i := range s.fix {
		s.fix[i] = mustJSON(fixtureRequest(s.seed, i))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.fix) {
					return
				}
				if rec, _ := call(d.h, http.MethodPost, "/v1/sweep", s.fix[i], benchTenants[0].Key); rec.Code != http.StatusOK {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		d.close()
		return fmt.Errorf("fixture: %d requests failed", n)
	}
	return d.close()
}

// gatedRun computes a request like blitzd does (blitzcoin.Execute). For
// the leader of a coalesced pair it first waits until the follower has
// joined the flight, as /metrics reports, so whether a pair coalesces is
// fixed by the workload rather than by thread timing.
func (s *servePass) gatedRun(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
	if req.Exchange != nil {
		if _, ok := s.seedOf.Load(req.Exchange.Seed); ok {
			want := s.pairsIssued.Load()
			deadline := time.Now().Add(2 * time.Second)
			for scrapeCounter(s.d.h, "blitzd_coalesced_total") < want && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	return blitzcoin.Execute(ctx, req)
}

// scrape reads /metrics through the handler.
func scrape(h http.Handler) string {
	rec, _ := call(h, http.MethodGet, "/metrics", nil, "")
	return rec.Body.String()
}

func scrapeCounter(h http.Handler, name string) int64 {
	return metricValueOf(scrape(h), name)
}

func metricValueOf(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return v
		}
	}
	return -1
}

// blocksRun runs the timed blocks with callers closed-loop callers.
func (s *servePass) blocksRun(c *clock, callers int) error {
	s.byClass = map[string]int{}
	s.sums = map[string]uint64{}
	s.computed = map[string]computedKey{}
	reqID := atomic.Int32{}
	for b := 0; b < s.p.blocks; b++ {
		units := serveBlock(s.seed, s.p, b, s.gen, s.fix)
		for _, u := range units {
			if u.kind == "pair" {
				s.seedOf.Store(u.req.Exchange.Seed, struct{}{})
			}
		}
		var lat []float64
		var lmu sync.Mutex
		record := func(ms float64) {
			lmu.Lock()
			lat = append(lat, ms)
			lmu.Unlock()
		}
		s.tr.setBlock(len(c.blocks))
		var next atomic.Int64
		_, err := c.block(func() {
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(units) {
							return
						}
						s.do(units[i], reqID.Add(1), record)
					}
				}()
			}
			wg.Wait()
		})
		if err != nil {
			return err
		}
		s.lat = append(s.lat, lat)
	}
	return nil
}

// do performs one unit and checks each response.
func (s *servePass) do(u unit, id int32, record func(float64)) {
	switch u.kind {
	case "hot", "cold", "miss":
		s.sweep(u, id, record)
	case "pair":
		s.pairMu.Lock()
		s.pairsIssued.Add(1)
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.sweep(u, id, record)
			}()
		}
		wg.Wait()
		s.pairMu.Unlock()
	case "shard":
		units, _ := u.req.ShardUnits()
		var sp shardPair
		sp.req = u.req
		for k, r := range [][2]int{{0, units / 2}, {units / 2, units}} {
			body := mustJSON(blitzcoin.ShardRequest{Request: u.req, Lo: r[0], Hi: r[1]})
			rec, t0, ms := timedCall(s.d.h, http.MethodPost, "/v1/shard", body, "")
			s.tr.add("server."+classShard, id, -1, t0, ms)
			record(ms)
			if rec.Code != http.StatusOK {
				s.fail("shard: status %d: %s", rec.Code, rec.Body.String())
				return
			}
			e, err := splitEnvelope(rec.Body.Bytes(), "shard")
			if err != nil {
				s.fail("shard envelope: %v", err)
				return
			}
			sp.halves[k] = append([]byte(nil), e.payload...)
		}
		s.mu.Lock()
		s.shards = append(s.shards, sp)
		s.mu.Unlock()
	}
}

// sweep sends one /v1/sweep request and checks its response: status 200,
// and result bytes identical to every other 200 for the same request hash.
func (s *servePass) sweep(u unit, id int32, record func(float64)) {
	rec, t0, ms := timedCall(s.d.h, http.MethodPost, "/v1/sweep", u.body, u.key)
	if rec.Code != http.StatusOK {
		record(ms)
		s.fail("sweep: status %d: %s", rec.Code, rec.Body.String())
		return
	}
	e, err := splitEnvelope(rec.Body.Bytes(), "result")
	if err != nil {
		record(ms)
		s.fail("sweep envelope: %v", err)
		return
	}
	class := classComputed
	switch {
	case e.Tier == "memory":
		class = classHot
	case e.Tier == "disk":
		class = classCold
	case e.Coalesced:
		class = classCoalesced
	}
	s.tr.add("server."+class, id, -1, t0, ms)
	record(ms)
	sum := maphash.Bytes(resultSeed, e.payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byClass[class]++
	if prev, ok := s.sums[e.RequestHash]; ok && prev != sum {
		s.failed++
		s.errs = append(s.errs, fmt.Sprintf("request %s served different result bytes (%s)", e.RequestHash[:12], class))
		return
	}
	s.sums[e.RequestHash] = sum
	if class == classComputed {
		s.computed[e.RequestHash] = computedKey{req: u.req, body: append([]byte(nil), e.payload...)}
	}
}

// counters are the /metrics values scraped after the run.
type counters struct {
	ledgerEntries, storeWrites, evictions, coalesced, storeHits, storeMisses int64
}

func (s *servePass) scrapeCounters() counters {
	t := scrape(s.d.h)
	return counters{
		ledgerEntries: metricValueOf(t, "blitzd_ledger_entries"),
		storeWrites:   metricValueOf(t, "blitzd_store_writes_total"),
		evictions:     metricValueOf(t, "blitzd_cache_evictions_total"),
		coalesced:     metricValueOf(t, "blitzd_coalesced_total"),
		storeHits:     metricValueOf(t, "blitzd_store_hits_total"),
		storeMisses:   metricValueOf(t, "blitzd_store_misses_total"),
	}
}

// postChecks verifies the served results after the run: every computed key
// against an in-process Execute, every shard pair's merge against the
// /v1/sweep result, a sample of ledger proofs, and the store's corrupt
// counter. With an engine pass it also decomposes each recomputation,
// which is where serve-mix's engine-layer metrics come from. It returns
// the computed results for the encode and SHA timings.
func (s *servePass) postChecks(c *clock, ep *enginePass, est *engineStats) ([]*blitzcoin.Result, float64, error) {
	hashes := make([]string, 0, len(s.computed))
	for h := range s.computed {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	results := make([]*blitzcoin.Result, len(hashes))
	var simSum, simN float64
	ep.tr.setBlock(len(c.blocks))
	_, err := c.block(func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		var id atomic.Int32
		id.Store(1 << 20)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(hashes) {
						return
					}
					ck := s.computed[hashes[i]]
					t0 := time.Now()
					res, err := blitzcoin.Execute(context.Background(), ck.req)
					ms := msSince(t0)
					if err != nil {
						s.fail("recompute: %v", err)
						continue
					}
					results[i] = res
					if ep.tr != nil {
						ep.decompose(id.Add(1), ck.req, res, ms, est)
					}
				}
			}()
		}
		wg.Wait()
	})
	if err != nil {
		return nil, 0, err
	}
	for i, h := range hashes {
		res := results[i]
		if res == nil {
			continue
		}
		want, err1 := resultSHA(res)
		got, err2 := blitzcoin.CanonicalResultSHA(s.computed[h].body)
		if err1 != nil || err2 != nil || want != got {
			s.fail("served result of %s differs from in-process Execute", h[:12])
		}
		for _, r := range res.Exchange.Rows {
			if r.Converged {
				simSum += r.ConvergenceMicros
				simN++
			}
		}
	}
	for _, sp := range s.shards {
		var halves []*blitzcoin.ShardResult
		for _, b := range sp.halves {
			var sr blitzcoin.ShardResult
			if err := json.Unmarshal(b, &sr); err != nil {
				s.fail("shard decode: %v", err)
				continue
			}
			halves = append(halves, &sr)
		}
		merged, err := blitzcoin.MergeShards(sp.req, halves)
		if err != nil {
			s.fail("merge shards: %v", err)
			continue
		}
		merged.Meta().Shards = 0
		want, _ := resultSHA(merged)
		rec, _ := call(s.d.h, http.MethodPost, "/v1/sweep", mustJSON(sp.req), benchTenants[1].Key)
		e, err := splitEnvelope(rec.Body.Bytes(), "result")
		if rec.Code != http.StatusOK || err != nil {
			s.fail("sweep of sharded request: status %d", rec.Code)
			continue
		}
		if got, err := blitzcoin.CanonicalResultSHA(e.payload); err != nil || got != want {
			s.fail("merged shards of %s differ from the /v1/sweep result", e.RequestHash[:12])
		}
	}
	for i, h := range hashes {
		if i%max(1, len(hashes)/32) != 0 {
			continue
		}
		rec, _ := call(s.d.h, http.MethodGet, "/v1/ledger/proof?hash="+h, nil, "")
		var p ledger.Proof
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &p) != nil {
			s.fail("ledger proof for %s: status %d", h[:12], rec.Code)
			continue
		}
		sha, err := blitzcoin.CanonicalResultSHA(s.computed[h].body)
		if err != nil || p.ResultSHA != sha || p.Verify() != nil {
			s.fail("ledger proof for %s does not verify the served result", h[:12])
		}
	}
	if n := s.d.st.Stats().Corrupt; n != 0 {
		s.fail("store reports %d corrupt entries", n)
	}
	if simN == 0 {
		return results, 0, fmt.Errorf("no converged trial among the computed results")
	}
	return results, simSum / simN, nil
}

// syncDirs fsyncs the state directories after the fixture is written, so
// the filesystem has committed the fixture's metadata before timing starts
// and the timed blocks' fsyncs do not wait behind it.
func syncDirs(dirs ...string) error {
	for _, dir := range dirs {
		f, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
