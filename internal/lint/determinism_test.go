package lint

import "testing"

func TestDeterminismGolden(t *testing.T) {
	pkg := loadFixture(t, "determinism")
	res := runAnalyzer(t, NewDeterminism(nil), pkg)
	checkGolden(t, "determinism", formatDiags(res.Active))
	if len(res.Suppressed) != 0 {
		t.Errorf("unexpected suppressions: %v", res.Suppressed)
	}
}

// TestDeterminismScope pins the production scoping: simulation packages are
// patrolled, the serving layer and CLIs are allowlisted for wall-clock use.
func TestDeterminismScope(t *testing.T) {
	for path, want := range map[string]bool{
		"blitzcoin":                      true,
		"blitzcoin/internal/coin":        true,
		"blitzcoin/internal/sweep":       true,
		"blitzcoin/internal/experiments": true,
		"blitzcoin/internal/server":      false,
		"blitzcoin/cmd/blitzd":           false,
		"blitzcoin/cmd/blitzctl":         false,
		"blitzcoin/internal/lint":        false,
	} {
		if got := SimScope(path); got != want {
			t.Errorf("SimScope(%q) = %v, want %v", path, got, want)
		}
	}
}
