package tenant

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic limiter tests.
type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func mustRegistry(t *testing.T, kf KeyFile) *Registry {
	t.Helper()
	r, err := New(kf)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestAuthenticate(t *testing.T) {
	r := mustRegistry(t, KeyFile{
		Tenants: []Config{
			{Name: "alice", Key: "alice-key"},
			{Name: "bob", KeySHA256: HashKey("bob-key")},
		},
	})

	for _, key := range []string{"alice-key", "bob-key"} {
		if _, err := r.Authenticate(key); err != nil {
			t.Errorf("Authenticate(%q): %v", key, err)
		}
	}
	if _, err := r.Authenticate(""); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("keyless without anonymous tier: got %v, want ErrUnauthenticated", err)
	}
	if _, err := r.Authenticate("wrong"); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("unknown key: got %v, want ErrUnauthenticated", err)
	}

	alice, _ := r.Authenticate("alice-key")
	if alice.Name != "alice" {
		t.Errorf("Authenticate(alice-key).Name = %q", alice.Name)
	}
}

func TestAnonymousTier(t *testing.T) {
	r := mustRegistry(t, KeyFile{
		Tenants:   []Config{{Name: "alice", Key: "alice-key"}},
		Anonymous: &Config{RatePerSec: 1},
	})
	anon, err := r.Authenticate("")
	if err != nil {
		t.Fatalf("keyless with anonymous tier: %v", err)
	}
	if anon.Name != "anonymous" {
		t.Errorf("anonymous tenant name = %q", anon.Name)
	}
	// A wrong key is still a 401 even when anonymous access exists.
	if _, err := r.Authenticate("wrong"); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("unknown key with anonymous tier: got %v, want ErrUnauthenticated", err)
	}
}

func TestOpenRegistryIgnoresKeys(t *testing.T) {
	r := Open()
	for _, key := range []string{"", "anything"} {
		tn, err := r.Authenticate(key)
		if err != nil || tn == nil {
			t.Fatalf("open registry Authenticate(%q) = %v, %v", key, tn, err)
		}
		if retry, err := tn.AllowRequest(); err != nil || retry != 0 {
			t.Fatalf("open tenant AllowRequest = %v, %v", retry, err)
		}
	}
}

func TestRegistryValidation(t *testing.T) {
	cases := []KeyFile{
		{Tenants: []Config{{Name: "", Key: "k"}}},                                 // nameless
		{Tenants: []Config{{Name: "a", Key: "k"}, {Name: "a", Key: "k2"}}},        // duplicate name
		{Tenants: []Config{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},         // duplicate key
		{Tenants: []Config{{Name: "a"}}},                                          // no key at all
		{Tenants: []Config{{Name: "a", KeySHA256: "abc"}}},                        // short hash
		{Tenants: []Config{{Name: "a", Key: "k", RatePerSec: -1}}},                // negative limit
		{Tenants: []Config{{Name: "a", Key: "k", Priority: "urgent"}}},            // bad class
		{Tenants: []Config{{Name: "a", Key: "k"}}, Anonymous: &Config{Name: "a"}}, // anon name collision
		{Tenants: []Config{{Name: "a", KeySHA256: "zz" + HashKey("x")[2:]}}},      // non-hex hash
	}
	for i, kf := range cases {
		if _, err := New(kf); err == nil {
			t.Errorf("case %d: New accepted invalid key file", i)
		}
	}
}

func TestRateLimit(t *testing.T) {
	clock := newFakeClock()
	r := mustRegistry(t, KeyFile{Tenants: []Config{{Name: "a", Key: "k", RatePerSec: 2, Burst: 2}}})
	r.SetNowFunc(clock.now)
	tn, _ := r.Authenticate("k")

	for i := 0; i < 2; i++ {
		if _, err := tn.AllowRequest(); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	retry, err := tn.AllowRequest()
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst exceeded: got %v, want ErrRateLimited", err)
	}
	if retry < time.Second {
		t.Errorf("retry-after %v, want >= 1s", retry)
	}

	// Half a second refills one token at 2/sec.
	clock.advance(500 * time.Millisecond)
	if _, err := tn.AllowRequest(); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	snap := tn.Snapshot()
	if snap.Requests != 3 || snap.RejectRate != 1 {
		t.Errorf("counters = %+v, want 3 requests / 1 rate reject", snap)
	}
}

func TestByteQuota(t *testing.T) {
	clock := newFakeClock()
	r := mustRegistry(t, KeyFile{Tenants: []Config{{Name: "a", Key: "k", QuotaBytes: 100, QuotaWindowSecs: 60}}})
	r.SetNowFunc(clock.now)
	tn, _ := r.Authenticate("k")

	if _, err := tn.AllowRequest(); err != nil {
		t.Fatalf("first request: %v", err)
	}
	tn.ChargeBytes(150)
	retry, err := tn.AllowRequest()
	if !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("over byte quota: got %v, want ErrQuotaExhausted", err)
	}
	if retry <= 0 || retry > time.Minute {
		t.Errorf("retry-after %v, want within the 60s window", retry)
	}

	// The window rolls over and usage resets.
	clock.advance(61 * time.Second)
	if _, err := tn.AllowRequest(); err != nil {
		t.Fatalf("after window reset: %v", err)
	}
}

func TestSweepQuota(t *testing.T) {
	clock := newFakeClock()
	r := mustRegistry(t, KeyFile{Tenants: []Config{{Name: "a", Key: "k", QuotaSweeps: 2, QuotaWindowSecs: 60}}})
	r.SetNowFunc(clock.now)
	tn, _ := r.Authenticate("k")

	for i := 0; i < 2; i++ {
		if _, err := tn.AllowSweep(); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	if _, err := tn.AllowSweep(); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("third sweep: got %v, want ErrQuotaExhausted", err)
	}
	// Plain requests (cache hits) are unaffected by the sweep quota.
	if _, err := tn.AllowRequest(); err != nil {
		t.Fatalf("request with sweeps exhausted: %v", err)
	}
	clock.advance(61 * time.Second)
	if _, err := tn.AllowSweep(); err != nil {
		t.Fatalf("sweep after window reset: %v", err)
	}
}

// TestSweepSettle: a reservation settled as shed goes back to the window
// and is not counted; one settled as run stays charged and counts. A
// return never drives the window below zero, even one from a window that
// has since rolled over.
func TestSweepSettle(t *testing.T) {
	clock := newFakeClock()
	r := mustRegistry(t, KeyFile{Tenants: []Config{{Name: "a", Key: "k", QuotaSweeps: 2, QuotaWindowSecs: 60}}})
	r.SetNowFunc(clock.now)
	tn, _ := r.Authenticate("k")
	allow := func(want int) {
		t.Helper()
		for i := 0; i < want; i++ {
			if _, err := tn.AllowSweep(); err != nil {
				t.Fatalf("sweep %d of %d: %v", i+1, want, err)
			}
		}
		if _, err := tn.AllowSweep(); !errors.Is(err, ErrQuotaExhausted) {
			t.Fatalf("sweep %d: got %v, want ErrQuotaExhausted", want+1, err)
		}
	}

	allow(2)
	tn.SettleSweep(true)
	tn.SettleSweep(false)
	allow(1)
	if c := tn.Snapshot(); c.Sweeps != 1 {
		t.Errorf("Sweeps = %d, want 1 (sheds are not counted)", c.Sweeps)
	}

	clock.advance(61 * time.Second)
	allow(2)
	for i := 0; i < 3; i++ {
		tn.SettleSweep(true) // the third returns the previous window's reservation
	}
	allow(2)
}

// TestSweepSettleConcurrent: reservations taken and settled from many
// goroutines at once never overrun the quota, and every shed reservation
// comes back, so exactly the units no kept sweep used remain.
func TestSweepSettleConcurrent(t *testing.T) {
	const quota = 10
	r := mustRegistry(t, KeyFile{Tenants: []Config{{Name: "a", Key: "k", QuotaSweeps: quota}}})
	tn, _ := r.Authenticate("k")
	var kept atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := tn.AllowSweep(); err != nil {
					continue
				}
				shed := i%2 == 0
				if !shed {
					kept.Add(1)
				}
				tn.SettleSweep(shed)
			}
		}()
	}
	wg.Wait()
	n := kept.Load()
	if n > quota {
		t.Fatalf("%d sweeps kept on a quota of %d", n, quota)
	}
	for i := n; i < quota; i++ {
		if _, err := tn.AllowSweep(); err != nil {
			t.Fatalf("unit %d of the %d left unused: %v", i-n+1, quota-n, err)
		}
	}
	if _, err := tn.AllowSweep(); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("past the quota: got %v, want ErrQuotaExhausted", err)
	}
	if c := tn.Snapshot(); c.Sweeps != uint64(n) {
		t.Errorf("Sweeps = %d, want the %d kept", c.Sweeps, n)
	}
}

func TestNilTenantIsUnlimited(t *testing.T) {
	var tn *Tenant
	if _, err := tn.AllowRequest(); err != nil {
		t.Errorf("nil AllowRequest: %v", err)
	}
	if _, err := tn.AllowSweep(); err != nil {
		t.Errorf("nil AllowSweep: %v", err)
	}
	tn.ChargeBytes(10)
	tn.CountHit()
	tn.CountQueueReject()
	tn.SettleSweep(false)
	if snap := tn.Snapshot(); snap != (Counters{}) {
		t.Errorf("nil Snapshot = %+v", snap)
	}
}

func TestParseClass(t *testing.T) {
	for s, want := range map[string]Class{"": ClassInteractive, "interactive": ClassInteractive, "batch": ClassBatch} {
		got, err := ParseClass(s)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Error("ParseClass accepted unknown class")
	}
}
