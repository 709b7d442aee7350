package blitzcoin

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// shardTestRequests are the shardable request shapes of the v1 API plus
// an unshardable figure, all sized for test runtime.
func shardTestRequests() map[string]Request {
	return map[string]Request{
		"exchange": {Trials: 6, Exchange: &ExchangeOptions{
			Dim: 4, Torus: true, RandomPairing: true, Seed: 9,
		}},
		"fig7": {Figure: &FigureOptions{
			Name: "7", Ns: []int{16}, Trials: 3, Seed: 2,
		}},
		"faults": {Figure: &FigureOptions{
			Name: "faults", Dims: []int{4}, DropRates: []float64{0, 0.02}, Trials: 3, Seed: 3,
		}},
	}
}

// splitUnits tiles [0, units) into k contiguous ranges, the same split
// the cluster coordinator plans.
func splitUnits(units, k int) [][2]int {
	if k > units {
		k = units
	}
	base, rem := units/k, units%k
	var out [][2]int
	at := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{at, at + size})
		at += size
	}
	return out
}

// clearShards zeroes the shard-provenance annotation so merged and
// single-node results can be compared byte-for-byte.
func clearShards(res *Result) {
	switch {
	case res.Exchange != nil:
		res.Exchange.Meta.Shards = 0
	case res.SoC != nil:
		res.SoC.Meta.Shards = 0
	case res.Figure != nil:
		res.Figure.Meta.Shards = 0
	}
}

func TestShardUnits(t *testing.T) {
	reqs := shardTestRequests()
	if u, err := reqs["exchange"].ShardUnits(); err != nil || u != 6 {
		t.Fatalf("exchange units = %d, %v; want 6", u, err)
	}
	// Fig. 7 pairs each n with pairing off and on: 1 n x 2 pairings x 3
	// trials.
	if u, err := reqs["fig7"].ShardUnits(); err != nil || u != 6 {
		t.Fatalf("fig7 units = %d, %v; want 6", u, err)
	}
	// Fault study: 1 dim x 2 drop rates x 3 trials.
	if u, err := reqs["faults"].ShardUnits(); err != nil || u != 6 {
		t.Fatalf("faults units = %d, %v; want 6", u, err)
	}
	// Figures without a shard decomposition are one indivisible unit.
	if u, err := (Request{Figure: &FigureOptions{Name: "13"}}).ShardUnits(); err != nil || u != 1 {
		t.Fatalf("figure 13 units = %d, %v; want 1", u, err)
	}
	if _, err := (Request{}).ShardUnits(); err == nil {
		t.Fatal("invalid request: want error")
	}
}

// TestMergeShardsByteIdentical is the determinism gate of the sharding
// surface: splitting any shardable request 1, 2, or 4 ways and merging
// must reproduce the single-node result byte-for-byte.
func TestMergeShardsByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, req := range shardTestRequests() {
		req := req
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := Execute(ctx, req)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			units, err := req.ShardUnits()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4} {
				var shards []*ShardResult
				for _, r := range splitUnits(units, k) {
					s, err := ExecuteShard(ctx, req, r[0], r[1])
					if err != nil {
						t.Fatalf("ExecuteShard[%d,%d): %v", r[0], r[1], err)
					}
					// A wire round trip must not perturb the payload
					// (float64 JSON encoding round-trips exactly).
					b, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					var wired ShardResult
					if err := json.Unmarshal(b, &wired); err != nil {
						t.Fatal(err)
					}
					shards = append(shards, &wired)
				}
				merged, err := MergeShards(req, shards)
				if err != nil {
					t.Fatalf("MergeShards k=%d: %v", k, err)
				}
				if got := merged.Kind; got != want.Kind {
					t.Fatalf("k=%d: kind %q, want %q", k, got, want.Kind)
				}
				wantShards := len(shards)
				var gotShards int
				switch {
				case merged.Exchange != nil:
					gotShards = merged.Exchange.Meta.Shards
				case merged.Figure != nil:
					gotShards = merged.Figure.Meta.Shards
				}
				if gotShards != wantShards {
					t.Fatalf("k=%d: meta shards %d, want %d", k, gotShards, wantShards)
				}
				clearShards(merged)
				gotJSON, err := json.Marshal(merged)
				if err != nil {
					t.Fatal(err)
				}
				if string(gotJSON) != string(wantJSON) {
					t.Fatalf("k=%d: merged result differs from single-node\n got: %s\nwant: %s", k, gotJSON, wantJSON)
				}
			}
		})
	}
}

// TestMergeShardsUnshardable checks the single-unit path: the whole
// result rides in the shard and merges to itself.
func TestMergeShardsUnshardable(t *testing.T) {
	ctx := context.Background()
	req := Request{Figure: &FigureOptions{Name: "13"}}
	s, err := ExecuteShard(ctx, req, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Whole == nil {
		t.Fatal("unshardable shard should carry the whole result")
	}
	merged, err := MergeShards(req, []*ShardResult{s})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Figure == nil || merged.Figure.Meta.Shards != 1 {
		t.Fatalf("merged = %+v; want figure with Meta.Shards 1", merged)
	}
}

func TestExecuteShardRangeValidation(t *testing.T) {
	ctx := context.Background()
	req := shardTestRequests()["exchange"]
	for _, r := range [][2]int{{-1, 2}, {0, 7}, {3, 3}, {4, 2}} {
		if _, err := ExecuteShard(ctx, req, r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d): want error", r[0], r[1])
		}
	}
	if _, err := ExecuteShard(ctx, Request{}, 0, 1); err == nil {
		t.Error("invalid request: want error")
	}
}

func TestMergeShardsTilingValidation(t *testing.T) {
	ctx := context.Background()
	req := shardTestRequests()["exchange"]
	a, err := ExecuteShard(ctx, req, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteShard(ctx, req, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A partial overlap is not an exact duplicate and cannot tile.
	c, err := ExecuteShard(ctx, req, 1, 4)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]*ShardResult{
		"gap":             {a},
		"partial overlap": {a, c, b},
		"nil shard":       {a, nil},
		"no shards":       {},
		"duplicated gap":  {b, b}, // deduped to {b}: still a gap at 0
	}
	for name, shards := range cases {
		if _, err := MergeShards(req, shards); err == nil {
			t.Errorf("%s: want error", name)
		}
	}

	// Exact duplicates — what a lost speculation race delivers — are
	// discarded and the merge succeeds.
	if _, err := MergeShards(req, []*ShardResult{a, b, a}); err != nil {
		t.Errorf("exact duplicate shard should merge: %v", err)
	}

	// A shard computed for different options must be refused by hash.
	other := shardTestRequests()["exchange"]
	other.Exchange.Seed++
	foreign, err := ExecuteShard(ctx, other, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = MergeShards(req, []*ShardResult{foreign, b})
	if err == nil || !strings.Contains(err.Error(), "options") {
		t.Errorf("foreign shard: got %v, want options-hash error", err)
	}

	// A shard whose row count disagrees with its range must be refused.
	short := *a
	short.Exchange = short.Exchange[:2]
	if _, err := MergeShards(req, []*ShardResult{&short, b}); err == nil {
		t.Error("short shard: want error")
	}
}

// FuzzMergeShards hammers the merge with the exact garbage a speculating
// work-stealing scheduler can produce: duplicated, out-of-order,
// overlapping, and missing shard completions in arbitrary combinations.
// The invariant under fuzz is one-sided soundness — whenever MergeShards
// accepts a multiset, its rows must be byte-identical to the single-node
// result; anything that cannot be deduplicated into an exact tiling must
// be refused.
func FuzzMergeShards(f *testing.F) {
	ctx := context.Background()
	req := shardTestRequests()["exchange"] // 6 shard units
	want, err := Execute(ctx, req)
	if err != nil {
		f.Fatal(err)
	}
	clearShards(want)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		f.Fatal(err)
	}
	// The shard pool: every contiguous split a coordinator could plan for
	// k = 1, 2, 3, 6, plus one deliberately overlapping range.
	var pool []*ShardResult
	for _, k := range []int{1, 2, 3, 6} {
		for _, r := range splitUnits(6, k) {
			s, err := ExecuteShard(ctx, req, r[0], r[1])
			if err != nil {
				f.Fatal(err)
			}
			pool = append(pool, s)
		}
	}
	overlapping, err := ExecuteShard(ctx, req, 1, 4)
	if err != nil {
		f.Fatal(err)
	}
	pool = append(pool, overlapping)

	f.Add([]byte{0})                         // whole-range shard alone
	f.Add([]byte{1, 2})                      // clean 2-way tiling
	f.Add([]byte{2, 1})                      // out of order
	f.Add([]byte{1, 1, 2})                   // duplicate completion
	f.Add([]byte{1, 12, 2})                  // partial overlap injected
	f.Add([]byte{6, 7, 8, 9, 10, 11, 6, 11}) // 6-way with dup head and tail
	f.Fuzz(func(t *testing.T, sel []byte) {
		if len(sel) > 24 {
			sel = sel[:24]
		}
		shards := make([]*ShardResult, 0, len(sel))
		distinct := make(map[[2]int]bool)
		for _, b := range sel {
			s := pool[int(b)%len(pool)]
			shards = append(shards, s)
			distinct[[2]int{s.Lo, s.Hi}] = true
		}
		merged, err := MergeShards(req, shards)
		if err != nil {
			return // refused multisets are fine; only acceptance is audited
		}
		var gotShards int
		if merged.Exchange != nil {
			gotShards = merged.Exchange.Meta.Shards
		}
		if gotShards != len(distinct) {
			t.Fatalf("meta shards %d, want %d distinct ranges", gotShards, len(distinct))
		}
		clearShards(merged)
		gotJSON, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("accepted merge differs from single-node\n got: %s\nwant: %s", gotJSON, wantJSON)
		}
	})
}
