package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"blitzcoin"
	"blitzcoin/internal/trace"
)

// streamEvent is the SSE data payload of one trace event: the flat wire
// form of trace.Event plus the synthetic fields the server adds (a cached
// sweep reports done without replaying its run).
type streamEvent struct {
	Type   string  `json:"type"`
	Seq    uint64  `json:"seq,omitempty"`
	Key    string  `json:"key"`
	Series string  `json:"series,omitempty"`
	Worker string  `json:"worker,omitempty"`
	Cycle  uint64  `json:"cycle,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Trial  int     `json:"trial"`
	Total  int     `json:"total,omitempty"`
	Lo     int     `json:"lo"`
	Hi     int     `json:"hi,omitempty"`
	OK     bool    `json:"ok"`
	// Cached marks a synthetic sweep-done for a result that was already in
	// the cache when the subscriber attached.
	Cached bool `json:"cached,omitempty"`
}

// wireEvent flattens a bus event for the SSE payload.
func wireEvent(ev trace.Event) streamEvent {
	return streamEvent{
		Type:   ev.Type.String(),
		Seq:    ev.Seq,
		Key:    ev.Key,
		Series: ev.Series,
		Worker: ev.Worker,
		Cycle:  ev.Cycle,
		Value:  ev.Value,
		Trial:  ev.Trial,
		Total:  ev.Total,
		Lo:     ev.Lo,
		Hi:     ev.Hi,
		OK:     ev.OK,
	}
}

// writeSSE writes one server-sent event frame: event name, id, and a JSON
// data line.
func writeSSE(w http.ResponseWriter, se streamEvent) error {
	data, err := json.Marshal(se)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", se.Type, se.Seq, data)
	return err
}

// streamBuffer is the per-subscriber event-ring capacity of /v1/stream; a
// subscriber that falls further behind loses its oldest events.
const streamBuffer = 256

// handleStream serves GET /v1/stream?hash=...: a server-sent-event stream
// of the sweep's live events — trial progress, convergence markers, power
// series points, and (in coordinator mode) shard lifecycle — ending with
// the sweep-done or sweep-failed event. A hash already in either cache
// tier gets an immediate synthetic sweep-done: serving it runs nothing, so
// no live one would come. Subscribers are backpressured by a bounded ring:
// a client that reads too slowly loses its oldest events (counted in
// blitzd_stream_dropped_total), never the sweep result itself.
//
// Drain: new subscriptions are refused with 503 while draining; streams
// already open when the drain begins keep following any sweep that is
// still in flight and end as soon as nothing is computing for their hash.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET only"})
		return
	}
	hash := r.URL.Query().Get("hash")
	if hash == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"missing hash query parameter"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{"streaming unsupported"})
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{"server draining"})
		return
	}

	// Subscribe before the cache check: if the sweep completes between the
	// two, either a tier has it (synthetic done below) or its sweep-done
	// event is already queued in the subscription.
	sub := s.bus.Subscribe(hash, streamBuffer)
	defer func() {
		sub.Close()
		s.metrics.streamDropped.Add(sub.Dropped())
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	if s.cache.has(hash) {
		if err := writeSSE(w, streamEvent{Type: "sweep-done", Key: hash, OK: true, Cached: true}); err != nil {
			return // client gone before the synthetic done; nothing to flush
		}
		fl.Flush()
		return
	}
	fl.Flush()

	// forward writes one event and reports whether the stream goes on: not
	// after a failed write or the sweep's terminal event.
	forward := func(ev trace.Event) bool {
		s.metrics.streamEvents.Add(1)
		if err := writeSSE(w, wireEvent(ev)); err != nil {
			return false
		}
		fl.Flush()
		return ev.Type != trace.EventSweepDone && ev.Type != trace.EventSweepFailed
	}
	keepalive := time.NewTicker(10 * time.Second)
	defer keepalive.Stop()
	drainCh := s.drainCh
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok || !forward(ev) {
				return
			}
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-drainCh:
			// Drain began. If nothing is computing for this hash anymore,
			// no event will arrive beyond those already queued (a sweep
			// publishes its done or failed event before its flight
			// retires): forward them and end the stream so
			// http.Server.Shutdown can finish. Otherwise keep following
			// the in-flight sweep to its done/failed event.
			if !s.flights.active(hash) {
				for {
					select {
					case ev, ok := <-sub.Events():
						if !ok || !forward(ev) {
							return
						}
					default:
						return
					}
				}
			}
			drainCh = nil
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// handleLedgerProof serves GET /v1/ledger/proof?hash=...[&engine=...]: a
// self-contained inclusion proof for the newest ledgered result of the
// given options hash. engine defaults to the serving engine's version.
// Reads stay available through a drain — verification is how clients
// audit results they already hold.
func (s *Server) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET only"})
		return
	}
	if s.ledger == nil {
		writeJSON(w, http.StatusNotFound, errorBody{"no ledger configured (start blitzd with -ledger)"})
		return
	}
	hash := r.URL.Query().Get("hash")
	if hash == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"missing hash query parameter"})
		return
	}
	engine := r.URL.Query().Get("engine")
	if engine == "" {
		engine = blitzcoin.EngineVersion
	}
	p, err := s.ledger.Proof(hash, engine)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// ledgerRootBody is the body of GET /v1/ledger/root.
type ledgerRootBody struct {
	Size          uint64 `json:"size"`
	Root          string `json:"root"`
	EngineVersion string `json:"engine_version"`
}

// handleLedgerRoot serves GET /v1/ledger/root: the current tree size and
// head, for clients that pin a trusted root out of band.
func (s *Server) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET only"})
		return
	}
	if s.ledger == nil {
		writeJSON(w, http.StatusNotFound, errorBody{"no ledger configured (start blitzd with -ledger)"})
		return
	}
	size, root := s.ledger.Root()
	writeJSON(w, http.StatusOK, ledgerRootBody{Size: size, Root: root, EngineVersion: blitzcoin.EngineVersion})
}
