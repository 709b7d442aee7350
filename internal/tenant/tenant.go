// Package tenant makes blitzd multi-tenant: API-key authentication from a
// static key file (keys stored hashed), per-tenant token-bucket rate
// limits and windowed byte/compute quotas, and priority-class admission
// control over the daemon's bounded worker pool.
//
// The trust model is deliberately simple: blitzd deployments own their
// key file, keys are opaque bearer strings, and the file stores only
// SHA-256 digests so a leaked config does not leak credentials. An
// optional anonymous tier serves keyless clients under its own limits;
// with no key file at all the registry is "open" and every request maps
// to one unlimited anonymous tenant — exactly the pre-tenancy behavior.
package tenant

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class is an admission priority class. Lower values dequeue first.
type Class uint8

const (
	// ClassInteractive is the default, latency-sensitive class.
	ClassInteractive Class = iota
	// ClassBatch yields to interactive work whenever both are queued.
	ClassBatch
	// NumClasses bounds per-class arrays.
	NumClasses
)

// String names the class as it appears in configs and metric labels.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	}
	return fmt.Sprintf("class-%d", uint8(c))
}

// ParseClass maps a config string to a Class; empty means interactive.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	}
	return ClassInteractive, fmt.Errorf("tenant: unknown priority class %q (want interactive or batch)", s)
}

// Sentinel errors the serving layer maps to HTTP statuses.
var (
	// ErrUnauthenticated maps to 401: no key where one is required, or a
	// key the registry does not know.
	ErrUnauthenticated = errors.New("tenant: unauthenticated")
	// ErrRateLimited maps to 429: the tenant's token bucket is empty.
	ErrRateLimited = errors.New("tenant: rate limit exceeded")
	// ErrQuotaExhausted maps to 429: a windowed byte or sweep quota is
	// spent for the current window.
	ErrQuotaExhausted = errors.New("tenant: quota exhausted")
)

// Config is one tenant's entry in the key file. Zero limits mean
// unlimited in that dimension.
type Config struct {
	// Name labels the tenant in logs and /metrics. Required, unique.
	Name string `json:"name"`
	// KeySHA256 is the hex SHA-256 of the tenant's API key — the
	// recommended form, so the key file never stores credentials.
	KeySHA256 string `json:"key_sha256,omitempty"`
	// Key is the plaintext API key, hashed at load time. Convenient for
	// smoke tests and local setups; prefer KeySHA256.
	Key string `json:"key,omitempty"`
	// RatePerSec and Burst shape the token bucket: sustained requests per
	// second and the bucket capacity. Burst defaults to max(1, ceil(rate)).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	// QuotaSweeps bounds how many uncached sweep computations the tenant
	// may trigger per quota window; QuotaBytes bounds result bytes served
	// (cached or computed) per window.
	QuotaSweeps int64 `json:"quota_sweeps,omitempty"`
	QuotaBytes  int64 `json:"quota_bytes,omitempty"`
	// QuotaWindowSecs is the quota reset period. Default 3600 (one hour).
	QuotaWindowSecs int `json:"quota_window_secs,omitempty"`
	// Priority is the admission class: "interactive" (default) or "batch".
	Priority string `json:"priority,omitempty"`
}

// KeyFile is the on-disk registry shape: named tenants plus an optional
// anonymous tier for keyless clients.
type KeyFile struct {
	Tenants []Config `json:"tenants"`
	// Anonymous, when present, admits keyless requests under its limits
	// (its Key/KeySHA256 fields are ignored). Absent means keyless
	// requests are rejected with 401.
	Anonymous *Config `json:"anonymous,omitempty"`
}

// Counters are one tenant's serving counters, exported on /metrics.
type Counters struct {
	Requests      uint64
	CacheHits     uint64
	Sweeps        uint64
	BytesServed   uint64
	RejectRate    uint64
	RejectQuota   uint64
	RejectedQueue uint64
}

// Tenant is one authenticated principal's runtime state: identity,
// admission class, token bucket, quota window, and counters. All methods
// are safe for concurrent use and safe on a nil receiver (a nil tenant
// is unlimited and uncounted — internal paths like cluster shard
// execution use it).
type Tenant struct {
	// Name and Class are immutable after construction.
	Name  string
	Class Class

	mu  sync.Mutex
	now func() time.Time

	// Token bucket: tokens refill at rate/sec up to burst. rate 0 means
	// unlimited.
	rate   float64
	burst  float64
	tokens float64
	last   time.Time

	// Quota window: used counters reset when the window rolls over.
	window      time.Duration
	windowStart time.Time
	quotaSweeps int64
	quotaBytes  int64
	usedSweeps  int64
	usedBytes   int64

	c Counters
}

// newTenant builds the runtime state for one config entry.
func newTenant(cfg Config) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, errors.New("tenant: config entry without a name")
	}
	class, err := ParseClass(cfg.Priority)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", cfg.Name, err)
	}
	if cfg.RatePerSec < 0 || cfg.Burst < 0 || cfg.QuotaSweeps < 0 || cfg.QuotaBytes < 0 || cfg.QuotaWindowSecs < 0 {
		return nil, fmt.Errorf("tenant %q: negative limit", cfg.Name)
	}
	burst := float64(cfg.Burst)
	if cfg.RatePerSec > 0 && burst == 0 {
		burst = cfg.RatePerSec
		if burst < 1 {
			burst = 1
		}
	}
	window := time.Duration(cfg.QuotaWindowSecs) * time.Second
	if window == 0 {
		window = time.Hour
	}
	return &Tenant{
		Name:        cfg.Name,
		Class:       class,
		now:         time.Now,
		rate:        cfg.RatePerSec,
		burst:       burst,
		tokens:      burst,
		window:      window,
		quotaSweeps: cfg.QuotaSweeps,
		quotaBytes:  cfg.QuotaBytes,
	}, nil
}

// refillLocked advances the token bucket and rolls the quota window.
func (t *Tenant) refillLocked(now time.Time) {
	if t.rate > 0 {
		if t.last.IsZero() {
			t.last = now
		}
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
	}
	if t.windowStart.IsZero() {
		t.windowStart = now
	}
	if now.Sub(t.windowStart) >= t.window {
		// Windows are anchored to first use, not wall-clock hours; a long
		// idle gap simply starts a fresh window.
		t.windowStart = now
		t.usedSweeps = 0
		t.usedBytes = 0
	}
}

// windowRetryLocked is how long until the current quota window resets.
func (t *Tenant) windowRetryLocked(now time.Time) time.Duration {
	d := t.windowStart.Add(t.window).Sub(now)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// AllowRequest admits or rejects one request at the edge: it consumes a
// rate-limit token and rejects when the byte quota is already spent.
// On rejection it returns how long the client should wait (the
// Retry-After value) and a sentinel error.
func (t *Tenant) AllowRequest() (time.Duration, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.refillLocked(now)
	if t.quotaBytes > 0 && t.usedBytes >= t.quotaBytes {
		t.c.RejectQuota++
		return t.windowRetryLocked(now), fmt.Errorf("%w: %d of %d quota bytes used this window", ErrQuotaExhausted, t.usedBytes, t.quotaBytes)
	}
	if t.rate > 0 {
		if t.tokens < 1 {
			t.c.RejectRate++
			wait := time.Duration((1 - t.tokens) / t.rate * float64(time.Second))
			if wait < time.Second {
				wait = time.Second
			}
			return wait, fmt.Errorf("%w: %.3g requests/sec sustained", ErrRateLimited, t.rate)
		}
		t.tokens--
	}
	t.c.Requests++
	return 0, nil
}

// AllowSweep reserves one unit of the sweep quota — called when a request
// misses every cache tier and is about to trigger (or join) a real
// computation. Cache hits never consume sweep quota: serving stored
// results cheaply is the point of the tiered store. Every reservation is
// settled by one SettleSweep once the computation's fate is known.
func (t *Tenant) AllowSweep() (time.Duration, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.refillLocked(now)
	if t.quotaSweeps > 0 && t.usedSweeps >= t.quotaSweeps {
		t.c.RejectQuota++
		return t.windowRetryLocked(now), fmt.Errorf("%w: %d of %d sweep executions used this window", ErrQuotaExhausted, t.usedSweeps, t.quotaSweeps)
	}
	t.usedSweeps++
	return 0, nil
}

// SettleSweep settles a reservation taken by AllowSweep. A computation
// the admission queue shed never ran: its unit goes back to the window
// (never below zero, should the window have rolled over since), and it is
// not counted. Any other outcome counts one sweep in Counters.Sweeps.
func (t *Tenant) SettleSweep(shed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !shed {
		t.c.Sweeps++
	} else if t.usedSweeps > 0 {
		t.usedSweeps--
	}
	t.mu.Unlock()
}

// ChargeBytes records result bytes served to the tenant; the next
// AllowRequest rejects once the window's byte quota is spent.
func (t *Tenant) ChargeBytes(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	t.usedBytes += int64(n)
	t.c.BytesServed += uint64(n)
	t.mu.Unlock()
}

// CountHit records a cache-tier hit (memory or disk).
func (t *Tenant) CountHit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.c.CacheHits++
	t.mu.Unlock()
}

// CountQueueReject records an admission-queue-full rejection.
func (t *Tenant) CountQueueReject() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.c.RejectedQueue++
	t.mu.Unlock()
}

// PriorityClass is the tenant's admission class; a nil tenant (an
// internal, unauthenticated path) admits as interactive.
func (t *Tenant) PriorityClass() Class {
	if t == nil {
		return ClassInteractive
	}
	return t.Class
}

// Snapshot returns a copy of the tenant's counters.
func (t *Tenant) Snapshot() Counters {
	if t == nil {
		return Counters{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// setNow injects a clock for tests.
func (t *Tenant) setNow(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// Registry resolves API keys to tenants. Immutable after construction
// (only tenant counters mutate), so lookups take no registry lock.
type Registry struct {
	byHash map[string]*Tenant
	anon   *Tenant
	// open marks the no-key-file registry: every request, keyed or not,
	// maps to the unlimited anonymous tenant.
	open    bool
	ordered []*Tenant
	unauth  atomic.Uint64
}

// Open returns the registry blitzd uses without a key file: one
// unlimited anonymous tenant that every request maps to.
func Open() *Registry {
	anon, _ := newTenant(Config{Name: "anonymous"})
	return &Registry{
		byHash:  map[string]*Tenant{},
		anon:    anon,
		open:    true,
		ordered: []*Tenant{anon},
	}
}

// New builds a registry from a parsed key file.
func New(kf KeyFile) (*Registry, error) {
	r := &Registry{byHash: make(map[string]*Tenant, len(kf.Tenants))}
	seen := make(map[string]bool, len(kf.Tenants))
	for _, cfg := range kf.Tenants {
		t, err := newTenant(cfg)
		if err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		hash := cfg.KeySHA256
		if hash == "" {
			if cfg.Key == "" {
				return nil, fmt.Errorf("tenant %q: neither key nor key_sha256 set", t.Name)
			}
			hash = HashKey(cfg.Key)
		}
		if len(hash) != sha256.Size*2 {
			return nil, fmt.Errorf("tenant %q: key_sha256 must be %d hex chars", t.Name, sha256.Size*2)
		}
		if _, err := hex.DecodeString(hash); err != nil {
			return nil, fmt.Errorf("tenant %q: key_sha256 is not hex: %w", t.Name, err)
		}
		if _, dup := r.byHash[hash]; dup {
			return nil, fmt.Errorf("tenant %q: key already registered to another tenant", t.Name)
		}
		r.byHash[hash] = t
		r.ordered = append(r.ordered, t)
	}
	if kf.Anonymous != nil {
		cfg := *kf.Anonymous
		if cfg.Name == "" {
			cfg.Name = "anonymous"
		}
		cfg.Key, cfg.KeySHA256 = "", ""
		anon, err := newTenant(cfg)
		if err != nil {
			return nil, err
		}
		if seen[anon.Name] {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", anon.Name)
		}
		r.anon = anon
		r.ordered = append(r.ordered, anon)
	}
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].Name < r.ordered[j].Name })
	return r, nil
}

// Load reads and parses a key file.
func Load(path string) (*Registry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading key file: %w", err)
	}
	var kf KeyFile
	if err := json.Unmarshal(b, &kf); err != nil {
		return nil, fmt.Errorf("tenant: parsing key file %s: %w", path, err)
	}
	if len(kf.Tenants) == 0 && kf.Anonymous == nil {
		return nil, fmt.Errorf("tenant: key file %s declares no tenants", path)
	}
	return New(kf)
}

// HashKey returns the hex SHA-256 of an API key — the form key files
// store and the registry indexes by.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Authenticate resolves an API key (empty for keyless requests) to a
// tenant. An unknown non-empty key is always rejected — it is a
// misconfigured client, not an anonymous one — except in open mode,
// where keys are ignored entirely.
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	if r.open {
		return r.anon, nil
	}
	if key == "" {
		if r.anon != nil {
			return r.anon, nil
		}
		return nil, fmt.Errorf("%w: no API key supplied and anonymous access is disabled", ErrUnauthenticated)
	}
	if t, ok := r.byHash[HashKey(key)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: unknown API key", ErrUnauthenticated)
}

// Tenants returns the registry's tenants in stable name order.
func (r *Registry) Tenants() []*Tenant { return r.ordered }

// CountUnauthenticated records a 401.
func (r *Registry) CountUnauthenticated() { r.unauth.Add(1) }

// Unauthenticated returns the 401 counter.
func (r *Registry) Unauthenticated() uint64 { return r.unauth.Load() }

// SetNowFunc injects a clock into every tenant (tests only).
func (r *Registry) SetNowFunc(now func() time.Time) {
	for _, t := range r.ordered {
		t.setNow(now)
	}
}

// ctxKey is the context key type for the authenticated tenant.
type ctxKey struct{}

// NewContext attaches the authenticated tenant to a request context.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the authenticated tenant, or nil (unlimited,
// uncounted) when the path was not authenticated.
func FromContext(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}
