package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"blitzcoin"
)

// FuzzRequestJSON fuzzes the trust boundary decodeRequest guards: any
// bytes a client may POST, strictly decoded into a blitzcoin.Request. For
// every input that validates, normalization is idempotent, the canonical
// hash is the hash of the normalized request, and the hash survives a
// marshal and re-decode round trip of the request and of its normalized
// form: the properties that make the hash a content address. A real run
// is `go test -run '^$' -fuzz FuzzRequestJSON -fuzztime 60s
// ./internal/server`.
func FuzzRequestJSON(f *testing.F) {
	for _, seed := range []string{
		tinyExchange,
		`{"soc": {"soc": "3x3", "repeat": 1, "seed": 5}}`,
		`{"custom_soc": {"w": 2, "h": 1, "torus": true, "budget_mw": 40,
			"tiles": [{"kind": "cpu"}, {"kind": "accel", "accel": "FFT"}],
			"tasks": [{"accel": "FFT", "work_cycles": 2e4}], "seed": 1}}`,
		`{"figure": {"name": "table1"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req blitzcoin.Request
		norm, hash, err := decodeRequest(bytes.NewReader(body), "request", &req, &req)
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
