package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// Success envelopes are written as bytes. A result is rendered once, when
// it enters the memory tier, into the exact form writeJSON would print it
// in as an envelope's last field; every response that serves it writes
// the envelope's other fields around those bytes in writeJSON's layout.
// TestEnvelopesGolden and FuzzEnvelope pin the output to writeJSON's.

// rendered is a result as the memory tier holds it.
type rendered struct {
	// body is the marshaled result compacted with HTML escaping and
	// indented one level: the bytes writeJSON prints for a json.RawMessage
	// that is the last field of an envelope.
	body []byte
	// size is the marshaled length, which tenants are charged.
	size int
}

// render formats marshaled result bytes for the memory tier, with the
// encoder and indent writeJSON uses one level down.
func render(marshaled []byte) (rendered, error) {
	var out appendWriter
	enc := json.NewEncoder(&out)
	enc.SetIndent("  ", "  ")
	if err := enc.Encode(json.RawMessage(marshaled)); err != nil {
		return rendered{}, fmt.Errorf("rendering result: %w", err)
	}
	return rendered{body: bytes.TrimSuffix(out, []byte("\n")), size: len(marshaled)}, nil
}

// appendWriter collects what is written to it. An Encoder writes each
// value in one call, so the rendered bytes take one allocation of about
// their own size.
type appendWriter []byte

func (w *appendWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// envelopeHead accumulates an envelope's fields in writeJSON's layout:
// one field per line, indented two spaces.
type envelopeHead []byte

func (h envelopeHead) key(name string) envelopeHead {
	if len(h) == 0 {
		h = append(h, "{\n  \""...)
	} else {
		h = append(h, ",\n  \""...)
	}
	h = append(h, name...)
	return append(h, "\": "...)
}

func (h envelopeHead) str(name, v string) envelopeHead {
	return appendJSONString(h.key(name), v)
}

func (h envelopeHead) num(name string, v int64) envelopeHead {
	return strconv.AppendInt(h.key(name), v, 10)
}

func (h envelopeHead) flag(name string, v bool) envelopeHead {
	return strconv.AppendBool(h.key(name), v)
}

// appendJSONString appends s quoted as writeJSON's encoder quotes it.
// Strings that need no escaping — every hash, kind and version the server
// writes — are copied as they are; anything else goes through
// encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// writeResponse writes resp with result as its result field; resp.Result
// is not read.
func writeResponse(w http.ResponseWriter, resp *Response, result rendered) {
	h := make(envelopeHead, 0, 256).
		str("version", resp.Version).
		str("kind", resp.Kind).
		str("request_hash", resp.RequestHash).
		str("engine_version", resp.EngineVersion).
		flag("cached", resp.Cached)
	if resp.Tier != "" {
		h = h.str("tier", resp.Tier)
	}
	h = h.flag("coalesced", resp.Coalesced).
		num("elapsed_micros", resp.ElapsedMicros)
	writeEnvelope(w, h.key("result"), result.body)
}

// writeShardResponse writes resp with shard as its shard field;
// resp.Shard is not read.
func writeShardResponse(w http.ResponseWriter, resp *ShardResponse, shard rendered) {
	h := make(envelopeHead, 0, 256).
		str("version", resp.Version).
		str("kind", resp.Kind).
		str("request_hash", resp.RequestHash).
		str("engine_version", resp.EngineVersion).
		num("lo", int64(resp.Lo)).
		num("hi", int64(resp.Hi)).
		flag("cached", resp.Cached).
		flag("coalesced", resp.Coalesced).
		num("elapsed_micros", resp.ElapsedMicros)
	writeEnvelope(w, h.key("shard"), shard.body)
}

// envelopeEnd closes an envelope after its last field.
var envelopeEnd = []byte("\n}\n")

// writeEnvelope writes a 200 envelope: head ends with the last field's
// name, body is that field's rendered value.
func writeEnvelope(w http.ResponseWriter, head envelopeHead, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, b := range [...][]byte{head, body, envelopeEnd} {
		if _, err := w.Write(b); err != nil {
			return // the client hung up; there is no one to tell
		}
	}
}
