package soc

import (
	"slices"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/workload"
)

// mapReady is the definition of the tasks dispatch considers: those not in
// done whose dependencies all are, in ID order.
func mapReady(g *workload.Graph, done map[int]bool) []int {
	var out []int
	for _, t := range g.Tasks {
		if done[t.ID] {
			continue
		}
		ok := true
		for _, d := range t.Deps {
			if !done[d] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t.ID)
		}
	}
	return out
}

// tileRunning is the definition of a running task: some tile is active
// with it.
func tileRunning(r *Runner, id int) bool {
	for _, idx := range r.tileOrder {
		if t := r.tiles[idx]; t.active && t.taskID == id {
			return true
		}
	}
	return false
}

// TestDispatchMatchesMapDefinition runs random DAGs on the 4x4 SoC, some
// with a tile killed mid-run, and after every completion and kill checks
// the ready list dispatch scanned against mapReady over the completed
// tasks, and the running flags against the tiles.
func TestDispatchMatchesMapDefinition(t *testing.T) {
	src := rng.New(26)
	accels := []string{"Vision", "GEMM", "Conv2D"}
	requeued := 0
	for trial := 0; trial < 24; trial++ {
		g := workload.RandomDAG(src, 10+src.Intn(40), accels, 5e3, 60e3, 3)
		scheme := SchemeStatic
		if trial%2 == 1 {
			scheme = SchemeCRR
		}
		cfg := SoC4x4(450, scheme, uint64(trial))
		if trial%3 == 2 {
			// Tile 2 is a GEMM; four others survive it.
			cfg.Faults = &fault.Config{TileKills: []fault.TileFault{{Tile: 2, At: sim.Cycles(20_000 + src.Intn(200_000))}}}
		}
		r := New(cfg)
		r.begin(g)
		finished, killed, checks := 0, 0, 0
		for r.finished < len(g.Tasks) && r.kernel.Step() {
			if r.finished == finished && r.tilesKilled == killed {
				continue
			}
			finished, killed = r.finished, r.tilesKilled
			if r.finished == len(g.Tasks) {
				break // the last completion dispatches nothing
			}
			done := map[int]bool{}
			for id, d := range r.done {
				if d {
					done[id] = true
				}
			}
			if len(done) != r.finished {
				t.Fatalf("trial %d: %d tasks done, %d finished", trial, len(done), r.finished)
			}
			if want := mapReady(g, done); !slices.Equal(r.ready, want) {
				t.Fatalf("trial %d at cycle %d: ready %v, want %v", trial, r.kernel.Now(), r.ready, want)
			}
			for id := range g.Tasks {
				if r.running[id] != tileRunning(r, id) {
					t.Fatalf("trial %d at cycle %d: task %d running=%v, tiles say %v",
						trial, r.kernel.Now(), id, r.running[id], !r.running[id])
				}
			}
			checks++
		}
		if r.finished != len(g.Tasks) || checks < len(g.Tasks)-1 {
			t.Fatalf("trial %d: %d of %d tasks finished, %d checks", trial, r.finished, len(g.Tasks), checks)
		}
		requeued += r.tasksRequeued
	}
	if requeued == 0 {
		t.Fatal("no kill caught a running task")
	}
}
