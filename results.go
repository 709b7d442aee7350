package blitzcoin

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"blitzcoin/internal/soc"
)

// ResultMeta makes every result self-describing: which engine produced it,
// from which seed, and from which canonical options (the same hash the
// blitzd cache keys on). All fields are comparable, so results that embed
// a ResultMeta stay comparable with ==.
type ResultMeta struct {
	// APIVersion and EngineVersion echo the versions that produced the
	// result.
	APIVersion    string `json:"api_version"`
	EngineVersion string `json:"engine_version"`
	// Seed is the seed the run was driven by.
	Seed uint64 `json:"seed"`
	// OptionsHash is the canonical hash of the normalized options that
	// produced the result (see Request.CanonicalHash).
	OptionsHash string `json:"options_hash,omitempty"`
	// Shards records distributed provenance: how many cluster shards were
	// merged into the result. 0 means single-node execution. Shard counts
	// never change result rows — MergeShards reduces in index order with
	// index-derived seeds — so this is a serving annotation, not an input.
	Shards int `json:"shards,omitempty"`
	// LedgerSeq and LedgerRoot record ledger provenance: the 1-based
	// sequence the result was appended at and the tree head after the
	// append. Stamped by blitzd when it runs with a ledger; zero/empty
	// otherwise. Like Shards, they annotate serving, never simulation —
	// CanonicalResultSHA clears them before hashing, so the ledgered SHA is
	// independent of where in the ledger the result landed.
	LedgerSeq  uint64 `json:"ledger_seq,omitempty"`
	LedgerRoot string `json:"ledger_root,omitempty"`
}

// meta stamps a result's provenance.
func newMeta(seed uint64, optionsHash string) ResultMeta {
	return ResultMeta{
		APIVersion:    APIVersion,
		EngineVersion: EngineVersion,
		Seed:          seed,
		OptionsHash:   optionsHash,
	}
}

// ExchangeResult reports one exchange simulation.
type ExchangeResult struct {
	// Meta records the engine version, seed, and options hash that
	// produced the result.
	Meta ResultMeta `json:"meta"`
	// Converged reports whether Err crossed the threshold.
	Converged bool `json:"converged"`
	// ConvergenceCycles and ConvergenceMicros time the first crossing.
	ConvergenceCycles uint64  `json:"convergence_cycles"`
	ConvergenceMicros float64 `json:"convergence_micros"`
	// PacketsToConvergence counts NoC packets up to the crossing.
	PacketsToConvergence uint64 `json:"packets_to_convergence"`
	// StartErr and FinalErr are the mean per-tile errors at the start and
	// end of the run; WorstTileErr is the largest residual per-tile error.
	StartErr     float64 `json:"start_err"`
	FinalErr     float64 `json:"final_err"`
	WorstTileErr float64 `json:"worst_tile_err"`
	// TotalPackets and Exchanges count all activity during the run.
	TotalPackets uint64 `json:"total_packets"`
	Exchanges    uint64 `json:"exchanges"`
	// ThermalRejects counts exchanges clamped by the hotspot guard.
	ThermalRejects uint64 `json:"thermal_rejects"`
	// CoinsConserved confirms every coin of the initial pool ended
	// accounted for on a live tile (after audit repair, under faults).
	CoinsConserved bool `json:"coins_conserved"`

	// Fault and recovery counters (all zero on a healthy run).
	Dropped         uint64 `json:"dropped,omitempty"`          // PM-plane packets lost in the fabric
	Retries         uint64 `json:"retries,omitempty"`          // exchanges abandoned by timeout and retried
	LocksBroken     uint64 `json:"locks_broken,omitempty"`     // participation locks freed by the watchdog
	NeighborsPruned int    `json:"neighbors_pruned,omitempty"` // partners removed from pairing sets as dead
	TilesDead       int    `json:"tiles_dead,omitempty"`       // tiles fail-stopped during the run
	AuditRepairs    uint64 `json:"audit_repairs,omitempty"`    // audits that found and repaired a discrepancy
	PoolViolation   int64  `json:"pool_violation,omitempty"`   // unrepaired pool residue at the end of the run
}

// ExchangeSweepResult aggregates a multi-trial exchange request (a
// Request with Trials > 1): per-trial rows plus summary statistics over
// the converged trials.
type ExchangeSweepResult struct {
	// Meta carries the base seed and the hash of the whole request.
	Meta   ResultMeta `json:"meta"`
	Trials int        `json:"trials"`
	// Converged counts trials whose error crossed the threshold;
	// Conserved counts trials that ended with the pool intact.
	Converged int `json:"converged"`
	Conserved int `json:"conserved"`
	// Means over the converged trials.
	MeanConvergenceMicros    float64 `json:"mean_convergence_micros"`
	MeanPacketsToConvergence float64 `json:"mean_packets_to_convergence"`
	MeanExchanges            float64 `json:"mean_exchanges"`
	// MeanFinalErr averages over all trials, converged or not.
	MeanFinalErr float64 `json:"mean_final_err"`
	// Rows holds every trial, in trial order (seed = base + trial*7919).
	Rows []ExchangeResult `json:"rows"`
}

// SoCResult reports one full-system run.
type SoCResult struct {
	// Meta records the engine version, seed, and options hash that
	// produced the result.
	Meta ResultMeta `json:"meta"`

	SoC      string `json:"soc"`
	Scheme   string `json:"scheme"`
	Strategy string `json:"strategy"`
	Workload string `json:"workload"`

	Completed bool `json:"completed"`
	// ExecMicros is the workload makespan.
	ExecMicros float64 `json:"exec_micros"`
	// Response-time statistics over all completed reallocations.
	MeanResponseMicros   float64 `json:"mean_response_micros"`
	MedianResponseMicros float64 `json:"median_response_micros"`
	MaxResponseMicros    float64 `json:"max_response_micros"`
	ResponsesRecorded    int     `json:"responses_recorded"`
	// Power statistics.
	AvgPowerMW      float64 `json:"avg_power_mw"`
	PeakPowerMW     float64 `json:"peak_power_mw"`
	BudgetMW        float64 `json:"budget_mw"`
	UtilizationPct  float64 `json:"utilization_pct"`
	ActivityChanges int     `json:"activity_changes"`

	// Fault-injection outcome (zero on a healthy run).
	TilesKilled   int `json:"tiles_killed,omitempty"`
	TasksRequeued int `json:"tasks_requeued,omitempty"`

	// res holds the raw internal result for WritePowerTraceCSV; it does
	// not survive a JSON round trip.
	res soc.Result
}

// String renders a one-line summary.
func (r SoCResult) String() string {
	return fmt.Sprintf("%s %s %s %s: exec=%.1fus resp(med)=%.2fus util=%.1f%%",
		r.SoC, r.Scheme, r.Strategy, r.Workload, r.ExecMicros,
		r.MedianResponseMicros, r.UtilizationPct)
}

// WritePowerTraceCSV writes the per-tile power traces of the run
// ("cycle,t00-FFT,..." rows at every change point) to w. It is only
// available on results obtained in-process; a JSON round trip drops the
// trace.
func (r SoCResult) WritePowerTraceCSV(w io.Writer) error {
	return r.res.Recorder.WriteCSV(w)
}

// FigureResult is a reproduced figure or table: the deterministic report
// lines `blitzctl run` prints, served through the unified API.
type FigureResult struct {
	// Meta carries the seed and options hash of the reproduction.
	Meta ResultMeta `json:"meta"`
	// Name is the registry key ("3", "17", "table1", ...); Title is the
	// human heading.
	Name  string `json:"name"`
	Title string `json:"title"`
	// Lines are the report rows, byte-identical at any parallelism.
	Lines []string `json:"lines"`
}

// Result is the union of everything Execute can return; exactly one
// payload is set, matching Kind.
type Result struct {
	Kind     RequestKind          `json:"kind"`
	Exchange *ExchangeSweepResult `json:"exchange,omitempty"`
	SoC      *SoCResult           `json:"soc,omitempty"`
	Figure   *FigureResult        `json:"figure,omitempty"`
}

// Meta returns the active payload's metadata, or nil for an empty Result.
func (r *Result) Meta() *ResultMeta {
	switch {
	case r == nil:
		return nil
	case r.Exchange != nil:
		return &r.Exchange.Meta
	case r.SoC != nil:
		return &r.SoC.Meta
	case r.Figure != nil:
		return &r.Figure.Meta
	}
	return nil
}

// SetLedgerProvenance stamps the result with the ledger position it was
// appended at. blitzd calls it after ledger.Append, before serving.
func (r *Result) SetLedgerProvenance(seq uint64, root string) {
	if m := r.Meta(); m != nil {
		m.LedgerSeq = seq
		m.LedgerRoot = root
	}
}

// CanonicalResultSHA hashes a result's serialized JSON for the ledger:
// the ledger provenance fields are cleared first (they describe where the
// result landed in the ledger, which cannot feed back into the hash the
// ledger records), then the result is re-marshaled and SHA-256'd. Server
// and verifying client both call this, so a stamped response hashes to
// the same digest the daemon appended.
func CanonicalResultSHA(resultJSON []byte) (string, error) {
	var r Result
	if err := json.Unmarshal(resultJSON, &r); err != nil {
		return "", fmt.Errorf("blitzcoin: canonical result sha: %w", err)
	}
	if m := r.Meta(); m != nil {
		m.LedgerSeq = 0
		m.LedgerRoot = ""
	}
	canon, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("blitzcoin: canonical result sha: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
