package lint

import "strings"

// Production scope for the blitzcoin module: which packages each analyzer
// patrols. Fixture tests construct analyzers with their own scopes, so none
// of this is hard-wired into the analyzers themselves.

// simPackages are the simulation packages where determinism is an invariant:
// a stray wall-clock read or global-rand draw here silently breaks
// byte-identical sweep rows.
var simPackages = []string{
	"blitzcoin",
	"blitzcoin/internal/coin",
	"blitzcoin/internal/sim",
	"blitzcoin/internal/noc",
	"blitzcoin/internal/soc",
	"blitzcoin/internal/mesh",
	"blitzcoin/internal/workload",
	"blitzcoin/internal/experiments",
	"blitzcoin/internal/sweep",
	"blitzcoin/internal/stats",
	"blitzcoin/internal/fault",
	"blitzcoin/internal/rng",
	"blitzcoin/internal/power",
	"blitzcoin/internal/scaling",
	"blitzcoin/internal/trace",
	"blitzcoin/internal/uvfr",
	"blitzcoin/internal/controller",
	"blitzcoin/internal/cpuproxy",
}

// wallClockAllowed are the packages that legitimately observe wall time:
// the serving layer (request latency metrics) and the CLIs (progress
// reporting). Everything under cmd/ is allowed by prefix.
var wallClockAllowed = []string{
	"blitzcoin/internal/server",
	"blitzcoin/cmd/",
}

// hotPathPackages form the exchange hot path de-allocated in PR 2; a new
// heap escape here regresses allocs/op long before benchcheck notices.
var hotPathPackages = []string{
	"./internal/coin",
	"./internal/noc",
	"./internal/sim",
}

// coinBudgetFields are the coin.Result fields that together encode pool
// conservation; writing them outside internal/coin forges the
// Conserved() verdict.
var coinBudgetFields = []string{
	"CoinsStart", "CoinsEnd", "PoolViolation", "CoinsMinted", "CoinsBurned",
}

// concurrencyPackages are the goroutine- and lock-heavy serving-layer
// packages the wave-2 analyzers (goroleak G00x, ctxflow C001, errdrop via
// errDropPackages) patrol: the work-stealing cluster, the daemon, the trace
// bus, the results ledger, and the parallel sweep driver. cmd/ stays out —
// entry points legitimately own detached lifetimes.
var concurrencyPackages = []string{
	"blitzcoin/internal/cluster",
	"blitzcoin/internal/server",
	"blitzcoin/internal/trace",
	"blitzcoin/internal/ledger",
	"blitzcoin/internal/sweep",
	"blitzcoin/internal/tenant",
	"blitzcoin/internal/store",
}

// ctxMintPackages are the packages where minting a fresh root context
// (C002) is forbidden: everything here is reached from an entry point that
// already owns a context, so a Background() below it detaches work from
// shutdown.
var ctxMintPackages = []string{
	"blitzcoin/internal/cluster",
	"blitzcoin/internal/server",
	"blitzcoin/internal/trace",
	"blitzcoin/internal/tenant",
	"blitzcoin/internal/store",
}

// lockOrderPackages are the packages whose named mutexes participate in the
// committed global acquisition order (lint/lockorder.txt): the scheduler/
// coordinator/registry locks, the trace bus they publish into, the
// daemon's tiered cache and flight locks, the tenancy admission/quota
// locks, and the disk store's index lock.
var lockOrderPackages = []string{
	"blitzcoin/internal/cluster",
	"blitzcoin/internal/server",
	"blitzcoin/internal/trace",
	"blitzcoin/internal/tenant",
	"blitzcoin/internal/store",
}

// errDropPackages are the packages where a silently dropped Close/Flush/
// Encode/Append error loses data a client already believes durable.
var errDropPackages = []string{
	"blitzcoin/internal/cluster",
	"blitzcoin/internal/server",
	"blitzcoin/internal/ledger",
	"blitzcoin/internal/trace",
	"blitzcoin/internal/tenant",
	"blitzcoin/internal/store",
}

// inList returns a scope predicate matching exactly the listed paths.
func inList(paths []string) func(string) bool {
	return func(p string) bool {
		for _, q := range paths {
			if p == q {
				return true
			}
		}
		return false
	}
}

// ConcurrencyScope reports whether path is patrolled by the goroleak and
// ctxflow analyzers under the production configuration.
func ConcurrencyScope(path string) bool { return inList(concurrencyPackages)(path) }

// SimScope reports whether path is a simulation package subject to the
// determinism analyzer under the production configuration.
func SimScope(path string) bool {
	for _, allow := range wallClockAllowed {
		if path == allow || strings.HasPrefix(path, allow) {
			return false
		}
	}
	for _, p := range simPackages {
		if path == p {
			return true
		}
	}
	return false
}

// DefaultAnalyzers returns the production analyzer set for the module
// rooted at moduleDir. goldenDir is where the apilock and hotpathalloc
// goldens live (conventionally <moduleDir>/lint).
func DefaultAnalyzers(moduleDir, goldenDir string) []Analyzer {
	return []Analyzer{
		NewDeterminism(SimScope),
		NewSeedflow(),
		NewHotPathAlloc(moduleDir, goldenDir, hotPathPackages),
		NewEncapsulation("blitzcoin/internal/coin", "Result", coinBudgetFields),
		NewAPILock("blitzcoin", goldenDir),
		NewGoroleak(ConcurrencyScope),
		NewCtxflow(ConcurrencyScope, inList(ctxMintPackages)),
		NewLockOrder(goldenDir, inList(lockOrderPackages)),
		NewErrDrop(inList(errDropPackages)),
	}
}
