package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"blitzcoin"
)

// FuzzRequestJSON fuzzes the trust boundary decodeRequest guards: any
// bytes a client may POST, strictly decoded into a blitzcoin.Request. Each
// body also goes through /v1/sweep's decode path twice on a fresh memo,
// the first pass a miss and the second a possible hit: both give the kind
// and hash a fresh decode gives, or its error, and the memo holds the body
// exactly when it decoded cleanly and fits memoBodyMax. For every input
// that validates, normalization is idempotent, the canonical hash is the
// hash of the normalized request, and the hash survives a marshal and
// re-decode round trip of the request and of its normalized form: the
// properties that make the hash a content address. `make fuzz-smoke` runs
// it for 10 s; a longer run is `go test -run '^$' -fuzz FuzzRequestJSON
// -fuzztime 60s ./internal/server`.
func FuzzRequestJSON(f *testing.F) {
	for _, seed := range []string{
		tinyExchange,
		`{"soc": {"soc": "3x3", "repeat": 1, "seed": 5}}`,
		`{"custom_soc": {"w": 2, "h": 1, "torus": true, "budget_mw": 40,
			"tiles": [{"kind": "cpu"}, {"kind": "accel", "accel": "FFT"}],
			"tasks": [{"accel": "FFT", "work_cycles": 2e4}], "seed": 1}}`,
		`{"figure": {"name": "table1"}}`,
		tinyExchange + strings.Repeat(" ", memoBodyMax),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req blitzcoin.Request
		norm, hash, err := decodeRequest(bytes.NewReader(body), "request", &req, &req)
		var m bodyMemo
		for pass := 1; pass <= 2; pass++ {
			k, merr := sweepKeyOf(&m, body)
			switch {
			case err != nil && (merr == nil || merr.Error() != err.Error()):
				t.Fatalf("pass %d: error %v, a fresh decode errs %v", pass, merr, err)
			case err == nil && (merr != nil || k != sweepKey{string(norm.Kind), hash}):
				t.Fatalf("pass %d: %+v, %v; a fresh decode gives kind %q, hash %q", pass, k, merr, norm.Kind, hash)
			}
			if held := memoHolds(&m, body); held != (err == nil && len(body) <= memoBodyMax) {
				t.Fatalf("pass %d: memo holds the body: %v (decode error %v, %d bytes)", pass, held, err, len(body))
			}
		}
		if err != nil {
			return
		}
		encode := func(r blitzcoin.Request) []byte {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("encoding %+v: %v", r, err)
			}
			return b
		}
		if once, twice := encode(norm), encode(norm.Normalized()); !bytes.Equal(once, twice) {
			t.Fatalf("Normalized is not idempotent:\n%s\n%s", once, twice)
		}
		if h, err := req.CanonicalHash(); err != nil || h != hash {
			t.Fatalf("CanonicalHash = %q, %v; the normalized request hashes to %q", h, err, hash)
		}
		for _, r := range []blitzcoin.Request{req, norm} {
			var again blitzcoin.Request
			_, h, err := decodeRequest(bytes.NewReader(encode(r)), "request", &again, &again)
			if err != nil || h != hash {
				t.Fatalf("round trip of %s: hash %q, %v; want %q", encode(r), h, err, hash)
			}
		}
	})
}
