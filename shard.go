package blitzcoin

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"blitzcoin/internal/sweep"
	"blitzcoin/internal/trace"
)

// This file is the sharding surface of the v1 API: how a Request's
// Monte-Carlo work decomposes into trial-range shards that independent
// blitzd workers can compute, and how shard outputs merge back into the
// exact Result a single node would have produced.
//
// The contract mirrors the sweep engine's: every trial unit derives its
// randomness from its global trial index alone, shards carry raw per-trial
// values (whose JSON encoding round-trips exactly), and MergeShards reduces
// them in index order. A request sharded 1, 2, or 4 ways — or re-sharded
// after a worker death — therefore yields byte-identical rows.

// ShardRequest is the wire form of POST /v1/shard: the full request for
// context plus the [Lo, Hi) trial range this worker should compute.
// OptionsHash, when set, must equal the request's canonical hash — it pins
// the shard to the coordinator's view of the options, so a worker running
// a different engine version refuses rather than returning foreign rows.
type ShardRequest struct {
	Request     Request `json:"request"`
	Lo          int     `json:"lo"`
	Hi          int     `json:"hi"`
	OptionsHash string  `json:"options_hash,omitempty"`
}

// ShardResult is one computed shard: the raw per-trial values for [Lo, Hi)
// of the request's flattened trial axis. Exactly one payload field is set,
// matching the request kind:
//
//   - Exchange: per-trial rows of an exchange sweep
//   - FigureTrials: figure-specific trial payloads (one per unit)
//   - Whole: the full Result of an unshardable request (single unit)
type ShardResult struct {
	// Meta stamps the engine that computed the shard and the canonical
	// hash of the request it belongs to.
	Meta ResultMeta `json:"meta"`
	Lo   int        `json:"lo"`
	Hi   int        `json:"hi"`

	Exchange     []ExchangeResult  `json:"exchange,omitempty"`
	FigureTrials []json.RawMessage `json:"figure_trials,omitempty"`
	Whole        *Result           `json:"whole,omitempty"`
}

// ShardUnits returns the length of the request's flattened trial axis: the
// number of independent trial units a cluster may split into ranges.
// Exchange requests shard per trial; figures that register a shard
// decomposition (Fig. 7, the fault study) shard per (point, trial) unit;
// everything else is one indivisible unit. Invalid requests error.
func (r Request) ShardUnits() (int, error) {
	n := r.Normalized()
	if err := n.Validate(); err != nil {
		return 0, err
	}
	switch n.Kind {
	case KindExchange:
		return n.Trials, nil
	case KindFigure:
		if s := figureRegistry[n.Figure.Name].shard; s != nil {
			return s.units(*n.Figure), nil
		}
	}
	return 1, nil
}

// ExecuteShard computes the trial units [lo, hi) of a request — the worker
// half of a distributed sweep. The same index-derived seeds drive each unit
// as in a local run, so the returned values are the exact slice a local
// execution would have produced. Like Execute, it validates first, converts
// panics into errors, and returns ctx.Err() rather than a partial shard
// when cancelled.
func ExecuteShard(ctx context.Context, req Request, lo, hi int) (res *ShardResult, err error) {
	n := req.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	hash, err := n.CanonicalHash()
	if err != nil {
		return nil, err
	}
	units, err := n.ShardUnits()
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > units || lo >= hi {
		return nil, fmt.Errorf("blitzcoin: shard range [%d,%d) outside [0,%d)", lo, hi, units)
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("blitzcoin: %v", p)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Publish worker-side trial progress keyed by the request hash, but no
	// sweep lifecycle — the coordinator that planned the shards owns those
	// events. An inherited stream (in-process merges) is reused as is.
	st := trace.FromContext(ctx)
	if !st.Active() {
		st = trace.NewStream(trace.Default(), hash)
		ctx = trace.NewContext(ctx, st)
	}

	out := &ShardResult{Meta: newMeta(n.seed(), hash), Lo: lo, Hi: hi}
	switch {
	case n.Kind == KindExchange:
		out.Exchange = exchangeShardRows(ctx, n, lo, hi)
	case n.Kind == KindFigure && figureRegistry[n.Figure.Name].shard != nil:
		s := figureRegistry[n.Figure.Name].shard
		o := *n.Figure
		out.FigureTrials = sweep.MapRange(ctx, lo, hi, 0, func(g int) json.RawMessage {
			st.TrialStart(g, units)
			raw := s.trial(o, g)
			st.TrialDone(g, units, true, 0)
			return raw
		})
	default:
		// One indivisible unit: the shard is the whole computation.
		whole, err := Execute(ctx, n)
		if err != nil {
			return nil, err
		}
		out.Whole = whole
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeShards reduces computed shards back into the Result a single-node
// Execute of the request would return. After discarding exact-duplicate
// ranges (speculative re-execution can legitimately complete the same
// shard twice, and determinism makes the copies interchangeable), the
// surviving shards must tile the request's unit range [0, ShardUnits())
// exactly — any gap, partial overlap, or length mismatch errors — and the
// reduction walks them in range order, so the merged rows are
// byte-identical to local execution at any shard count, arrival order, or
// duplication pattern. The merged ResultMeta records the distinct shard
// count as provenance.
func MergeShards(req Request, shards []*ShardResult) (*Result, error) {
	n := req.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	hash, err := n.CanonicalHash()
	if err != nil {
		return nil, err
	}
	units, err := n.ShardUnits()
	if err != nil {
		return nil, err
	}
	ordered := append([]*ShardResult(nil), shards...)
	for _, s := range ordered {
		if s == nil {
			return nil, fmt.Errorf("blitzcoin: nil shard in merge")
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Lo != ordered[j].Lo {
			return ordered[i].Lo < ordered[j].Lo
		}
		return ordered[i].Hi < ordered[j].Hi
	})
	// Drop exact duplicates (same [Lo, Hi)): the first copy wins, exactly
	// as the coordinator's first-result-wins rule would have chosen.
	deduped := ordered[:0]
	for _, s := range ordered {
		if len(deduped) > 0 {
			prev := deduped[len(deduped)-1]
			if prev.Lo == s.Lo && prev.Hi == s.Hi {
				continue
			}
		}
		deduped = append(deduped, s)
	}
	ordered = deduped
	at := 0
	for _, s := range ordered {
		if s.Lo != at || s.Hi <= s.Lo || s.Hi > units {
			return nil, fmt.Errorf("blitzcoin: shard range [%d,%d) does not tile [0,%d) (next expected lo %d)", s.Lo, s.Hi, units, at)
		}
		if s.Meta.OptionsHash != "" && s.Meta.OptionsHash != hash {
			return nil, fmt.Errorf("blitzcoin: shard [%d,%d) was computed for options %s, want %s", s.Lo, s.Hi, short12(s.Meta.OptionsHash), short12(hash))
		}
		at = s.Hi
	}
	if at != units {
		return nil, fmt.Errorf("blitzcoin: shards cover [0,%d) of [0,%d)", at, units)
	}

	switch {
	case n.Kind == KindExchange:
		rows := make([]ExchangeResult, 0, units)
		for _, s := range ordered {
			if len(s.Exchange) != s.Hi-s.Lo {
				return nil, fmt.Errorf("blitzcoin: shard [%d,%d) carries %d exchange rows", s.Lo, s.Hi, len(s.Exchange))
			}
			rows = append(rows, s.Exchange...)
		}
		meta := newMeta(n.Exchange.Seed, hash)
		meta.Shards = len(ordered)
		return &Result{Kind: KindExchange, Exchange: foldExchangeSweep(meta, n.Trials, rows)}, nil

	case n.Kind == KindFigure && figureRegistry[n.Figure.Name].shard != nil:
		o := *n.Figure
		trials := make([]json.RawMessage, 0, units)
		for _, s := range ordered {
			if len(s.FigureTrials) != s.Hi-s.Lo {
				return nil, fmt.Errorf("blitzcoin: shard [%d,%d) carries %d figure trials", s.Lo, s.Hi, len(s.FigureTrials))
			}
			trials = append(trials, s.FigureTrials...)
		}
		lines, err := figureRegistry[o.Name].shard.merge(o, trials)
		if err != nil {
			return nil, err
		}
		meta := newMeta(o.Seed, hash)
		meta.Shards = len(ordered)
		return &Result{Kind: KindFigure, Figure: &FigureResult{
			Meta:  meta,
			Name:  o.Name,
			Title: figureRegistry[o.Name].title,
			Lines: lines,
		}}, nil

	default:
		s := ordered[0]
		if s.Whole == nil {
			return nil, fmt.Errorf("blitzcoin: unshardable request merged without a whole result")
		}
		whole := *s.Whole
		switch {
		case whole.Exchange != nil:
			whole.Exchange.Meta.Shards = 1
		case whole.SoC != nil:
			whole.SoC.Meta.Shards = 1
		case whole.Figure != nil:
			whole.Figure.Meta.Shards = 1
		}
		return &whole, nil
	}
}

// short12 abbreviates a canonical hash for error messages.
func short12(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
