// Command blitzctl is the blitzd client: it builds or forwards a
// blitzcoin.Request, POSTs it to the daemon, and prints the response
// envelope JSON (which embeds the result and the cached/coalesced serving
// annotations). Its run subcommand reproduces the paper's figures
// in-process, without a daemon.
//
// Figures, in-process:
//
//	blitzctl run -fig <name>|all [-seed 1] [-trials N] [-csv dir]
//
// run prints "# <Title>" and the lines blitzd would serve for the figure
// (all: every figure, blank-line separated); -csv also writes the
// figure's data as CSV files into dir. It exits 2 on an unknown -fig,
// 130 on SIGINT after printing the partial rows, and 1 when a CSV file
// cannot be created, written or closed.
//
// Daemon client usage:
//
//	blitzctl -addr 127.0.0.1:8425 -figure 7 [-trials 50] [-seed 1]
//	blitzctl -exchange [-dim 8] [-trials 10] [-seed 1]
//	blitzctl -soc 3x3 [-scheme BC] [-seed 1]
//	blitzctl -req request.json      # or -req - for stdin
//	blitzctl -figures               # list the figure registry
//	blitzctl -metrics               # scrape /metrics
//	blitzctl -cluster               # worker table, steal/speculation counters, shard latency
//	blitzctl -ready                 # readiness probe (/readyz; exit 1 when not ready)
//
// Live telemetry and ledger audits:
//
//	blitzctl -figure 7 -stream      # follow the sweep live over SSE while it runs
//	blitzctl -stream -hash <h>      # follow an already-running sweep by hash
//	blitzctl -exchange -verify      # run, then verify the result against the ledger
//
// -stream subscribes to GET /v1/stream before POSTing, prints each event
// to stderr as it arrives (per-trial progress, convergence markers, live
// series points, shard dispatches on a coordinator), and waits for the
// sweep-done event. -verify recomputes the canonical result SHA of the
// served result, fetches GET /v1/ledger/proof, and checks the Merkle
// inclusion proof locally — exit 0 only if the daemon's ledger really
// contains the result that was served.
//
// Multi-tenant daemons: `-api-key <key>` (default: the BLITZ_API_KEY
// environment variable) sends the key as `Authorization: Bearer <key>`
// on every request. A 401 (missing/unknown key) or 429 (rate limit or
// quota, with its Retry-After wait) is reported as a clear one-line
// error instead of a raw response dump.
//
// Every request runs under -timeout and is cancelled cleanly by SIGINT/
// SIGTERM. Exit status is 0 on HTTP 200, 1 otherwise.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		// SIGINT/SIGTERM cancel the sweeps: no new trials are dispatched,
		// running ones finish, and the partial rows print with a warning.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		code := runFigures(ctx, os.Args[2:], os.Stdout, os.Stderr)
		stop()
		os.Exit(code)
	}

	addr := flag.String("addr", "127.0.0.1:8425", "blitzd address (host:port)")
	reqFile := flag.String("req", "", "POST a request from this JSON file (- for stdin)")
	figure := flag.String("figure", "", "reproduce a figure by registry name")
	exchange := flag.Bool("exchange", false, "run an exchange sweep")
	socName := flag.String("soc", "", "run a SoC simulation on this platform (3x3, 4x4, 6x6)")
	scheme := flag.String("scheme", "", "PM scheme for -soc")
	dim := flag.Int("dim", 0, "mesh dimension for -exchange")
	trials := flag.Int("trials", 0, "trial count for -exchange / -figure")
	seed := flag.Uint64("seed", 0, "base random seed")
	metrics := flag.Bool("metrics", false, "scrape and print /metrics")
	figures := flag.Bool("figures", false, "list the figure registry")
	clusterStatus := flag.Bool("cluster", false, "print the coordinator's worker table and shard counters")
	ready := flag.Bool("ready", false, "probe /readyz (exit 0 only when the daemon is ready)")
	stream := flag.Bool("stream", false, "follow the sweep's live events over SSE while it runs")
	verify := flag.Bool("verify", false, "verify the served result against the daemon's ledger")
	hashFlag := flag.String("hash", "", "with -stream: follow this request hash instead of POSTing a sweep")
	timeout := flag.Duration("timeout", 10*time.Minute, "request timeout")
	flag.StringVar(&apiKey, "api-key", os.Getenv("BLITZ_API_KEY"), "API key for multi-tenant daemons (default: $BLITZ_API_KEY)")
	flag.Parse()

	base := "http://" + strings.TrimPrefix(*addr, "http://")
	client := &http.Client{}

	// One context bounds the whole request path: the -timeout deadline
	// plus clean cancellation on SIGINT/SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	switch {
	case *metrics:
		get(ctx, client, base+"/metrics")
	case *figures:
		get(ctx, client, base+"/v1/figures")
	case *clusterStatus:
		get(ctx, client, base+"/v1/cluster/status")
	case *ready:
		get(ctx, client, base+"/readyz")
	case *stream && *hashFlag != "":
		// Follow an already-running (or cached) sweep without launching one.
		connected := make(chan struct{})
		followStream(ctx, client, base, *hashFlag, connected)
	default:
		body, err := buildRequest(*reqFile, *figure, *exchange, *socName, *scheme, *dim, *trials, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blitzctl: %v\n", err)
			os.Exit(1)
		}
		runSweep(ctx, client, base, body, *stream, *verify)
	}
}

// runSweep POSTs the request, optionally following its live event stream
// while it runs and verifying the served result against the ledger after.
func runSweep(ctx context.Context, client *http.Client, base string, body []byte, stream, verify bool) {
	hash := ""
	if stream || verify {
		var req blitzcoin.Request
		if err := json.Unmarshal(body, &req); err != nil {
			fail(fmt.Errorf("decoding request for hashing: %w", err))
		}
		norm := req.Normalized()
		h, err := norm.CanonicalHash()
		if err != nil {
			fail(err)
		}
		hash = h
	}

	var streamDone chan struct{}
	if stream {
		// Subscribe before POSTing so no event outruns us; if the sweep is
		// already cached the stream answers with a synthetic sweep-done.
		connected := make(chan struct{})
		streamDone = make(chan struct{})
		go func() {
			defer close(streamDone)
			followStream(ctx, client, base, hash, connected)
		}()
		select {
		case <-connected:
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
	}

	resp, respBody := postCapture(ctx, client, base+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		if msg := explainStatus(resp, respBody); msg != "" {
			fmt.Fprintf(os.Stderr, "blitzctl: %s\n", msg)
		} else {
			os.Stdout.Write(respBody) //nolint:errcheck // best effort to a pipe
			fmt.Fprintf(os.Stderr, "blitzctl: HTTP %s\n", resp.Status)
		}
		os.Exit(1)
	}
	os.Stdout.Write(respBody) //nolint:errcheck // best effort to a pipe

	if streamDone != nil {
		select {
		case <-streamDone:
		case <-time.After(10 * time.Second):
			fmt.Fprintln(os.Stderr, "blitzctl: stream did not complete; continuing")
		case <-ctx.Done():
		}
	}
	if verify {
		verifyAgainstLedger(ctx, client, base, respBody)
	}
}

// followStream prints the SSE events of one sweep hash to stderr until
// the stream reports sweep-done/sweep-failed or ends. connected closes
// once the subscription is established (or has failed).
func followStream(ctx context.Context, client *http.Client, base, hash string, connected chan struct{}) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/stream?hash="+url.QueryEscape(hash), nil)
	if err != nil {
		close(connected)
		fmt.Fprintf(os.Stderr, "blitzctl: stream: %v\n", err)
		return
	}
	authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		close(connected)
		fmt.Fprintf(os.Stderr, "blitzctl: stream: %v\n", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		close(connected)
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if msg := explainStatus(resp, body); msg != "" {
			fmt.Fprintf(os.Stderr, "blitzctl: stream: %s\n", msg)
		} else {
			fmt.Fprintf(os.Stderr, "blitzctl: stream: HTTP %s: %s\n", resp.Status, bytes.TrimSpace(body))
		}
		return
	}
	close(connected)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			fmt.Fprintf(os.Stderr, "stream %-14s %s\n", event, strings.TrimPrefix(line, "data: "))
			if event == "sweep-done" || event == "sweep-failed" {
				return
			}
		}
	}
}

// sweepEnvelope is the slice of the POST /v1/sweep response that
// verification needs.
type sweepEnvelope struct {
	RequestHash   string          `json:"request_hash"`
	EngineVersion string          `json:"engine_version"`
	Result        json.RawMessage `json:"result"`
}

// verifyAgainstLedger audits a served sweep response: recompute the
// canonical result SHA locally, fetch the daemon's inclusion proof, check
// that the proof binds (hash, engine, SHA), and verify the Merkle path
// locally. Exits 1 on any mismatch.
func verifyAgainstLedger(ctx context.Context, client *http.Client, base string, respBody []byte) {
	var env sweepEnvelope
	if err := json.Unmarshal(respBody, &env); err != nil {
		fail(fmt.Errorf("decoding sweep envelope: %w", err))
	}
	sha, err := blitzcoin.CanonicalResultSHA(env.Result)
	if err != nil {
		fail(err)
	}

	u := base + "/v1/ledger/proof?hash=" + url.QueryEscape(env.RequestHash) +
		"&engine=" + url.QueryEscape(env.EngineVersion)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		fail(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	proofBody, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "blitzctl: verify: HTTP %s: %s\n", resp.Status, bytes.TrimSpace(proofBody))
		os.Exit(1)
	}
	var p ledger.Proof
	if err := json.Unmarshal(proofBody, &p); err != nil {
		fail(fmt.Errorf("decoding ledger proof: %w", err))
	}

	switch {
	case p.Key != env.RequestHash:
		fmt.Fprintf(os.Stderr, "blitzctl: verify FAILED: proof is for options %s, served %s\n", p.Key, env.RequestHash)
		os.Exit(1)
	case p.Engine != env.EngineVersion:
		fmt.Fprintf(os.Stderr, "blitzctl: verify FAILED: proof engine %s, served %s\n", p.Engine, env.EngineVersion)
		os.Exit(1)
	case p.ResultSHA != sha:
		fmt.Fprintf(os.Stderr, "blitzctl: verify FAILED: ledger holds result %s, served result hashes to %s\n", p.ResultSHA, sha)
		os.Exit(1)
	}
	if err := p.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "blitzctl: verify FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "blitzctl: ledger verification OK (seq=%d tree=%d root=%s)\n", p.Seq, p.TreeSize, p.Root)
}

// buildRequest assembles the POST body from the selected mode.
func buildRequest(reqFile, figure string, exchange bool, socName, scheme string, dim, trials int, seed uint64) ([]byte, error) {
	modes := 0
	for _, on := range []bool{reqFile != "", figure != "", exchange, socName != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return nil, fmt.Errorf("pick exactly one of -req, -figure, -exchange, -soc (have %d)", modes)
	}
	switch {
	case reqFile == "-":
		return io.ReadAll(os.Stdin)
	case reqFile != "":
		return os.ReadFile(reqFile)
	case figure != "":
		return json.Marshal(blitzcoin.Request{Figure: &blitzcoin.FigureOptions{
			Name: figure, Trials: trials, Seed: seed,
		}})
	case exchange:
		return json.Marshal(blitzcoin.Request{Trials: trials, Exchange: &blitzcoin.ExchangeOptions{
			Dim: dim, Torus: true, RandomPairing: true, Seed: seed,
		}})
	default:
		return json.Marshal(blitzcoin.Request{SoC: &blitzcoin.SoCOptions{
			SoC: socName, Scheme: blitzcoin.Scheme(scheme), Seed: seed,
		}})
	}
}

func get(ctx context.Context, client *http.Client, url string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		fail(err)
	}
	authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		fail(err)
	}
	emit(resp)
}

// postCapture POSTs and returns the full response (body read to the end)
// so callers can both print and inspect it.
func postCapture(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	return resp, b
}

// apiKey is the -api-key / BLITZ_API_KEY credential, attached as a
// Bearer token to every request when non-empty.
var apiKey string

// authorize attaches the API key, if one was supplied.
func authorize(req *http.Request) {
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
}

// explainStatus turns a tenancy rejection into a clear one-line error:
// 401 names the credential problem, 429 names the limit and its
// Retry-After wait. Returns "" for statuses that need no translation.
func explainStatus(resp *http.Response, body []byte) string {
	var reason struct {
		Error string `json:"error"`
	}
	json.Unmarshal(body, &reason) //nolint:errcheck // best-effort: fall back to the raw status line
	switch resp.StatusCode {
	case http.StatusUnauthorized:
		if reason.Error == "" {
			reason.Error = "the daemon requires an API key"
		}
		return fmt.Sprintf("unauthorized: %s (set -api-key or BLITZ_API_KEY)", reason.Error)
	case http.StatusTooManyRequests:
		msg := reason.Error
		if msg == "" {
			msg = "rate limit or quota exceeded"
		}
		if retry := resp.Header.Get("Retry-After"); retry != "" {
			return fmt.Sprintf("throttled: %s; retry in %ss", msg, retry)
		}
		return "throttled: " + msg
	}
	return ""
}

// fail reports a transport-level error, naming the timeout when the
// deadline (rather than the server) killed the request.
func fail(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "blitzctl: request timed out (-timeout)")
	} else {
		fmt.Fprintf(os.Stderr, "blitzctl: %v\n", err)
	}
	os.Exit(1)
}

// emit writes the response body to stdout and exits non-zero on non-200;
// recognized tenancy rejections (401, 429) become one-line errors instead
// of a body dump.
func emit(resp *http.Response) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		if msg := explainStatus(resp, body); msg != "" {
			fmt.Fprintf(os.Stderr, "blitzctl: %s\n", msg)
		} else {
			os.Stdout.Write(body) //nolint:errcheck // best effort to a pipe
			fmt.Fprintf(os.Stderr, "blitzctl: HTTP %s\n", resp.Status)
		}
		os.Exit(1)
	}
	os.Stdout.Write(body) //nolint:errcheck // best effort to a pipe
}
