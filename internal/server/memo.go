package server

import (
	"bytes"
	"io"
	"sync"

	"blitzcoin"
)

// A /v1/sweep body is read into a pooled buffer before it is decoded, and
// a body the daemon has already decoded cleanly skips the decoder: the
// memo maps its exact bytes to what a cache hit needs, the request's kind
// and canonical hash. Both are functions of the bytes alone, so a memo hit
// serves the same key a fresh decode would compute.
const (
	// sweepBodyMax bounds a /v1/sweep body; a JSON value that runs past it
	// is refused with 413.
	sweepBodyMax = 1 << 20
	// memoBodyMax is the longest body the memo holds. A longer one is
	// decoded on every request.
	memoBodyMax = 4 << 10
	// memoBytesMax bounds the memo's key bytes. An insert that would pass
	// it starts a fresh map.
	memoBytesMax = 4 << 20
)

// sweepKey is what the memo keeps per body: the normalized request's kind
// and canonical hash.
type sweepKey struct {
	kind, hash string
}

// bodyMemo maps the exact bytes of /v1/sweep bodies that decoded,
// validated and hashed cleanly to their sweepKey. mu is a leaf lock: it is
// never held across the cache's lock or a store call. Safe for concurrent
// use; the zero value is empty.
type bodyMemo struct {
	mu    sync.Mutex
	keys  map[string]sweepKey
	bytes int
}

// bodyBuf holds the first memoBodyMax+1 bytes of a body: one byte more
// than the memo takes tells a body that fits from one that does not.
type bodyBuf [memoBodyMax + 1]byte

// bodyBufs recycles the buffers handleSweep reads bodies into, so a memo
// hit allocates no buffer.
var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// sweepBody is a /v1/sweep body as read for the memo.
type sweepBody struct {
	// head is what was read into the buffer: the whole body when rest is
	// nil.
	head []byte
	// rest is the unread body, nil when it ended within memoBodyMax bytes.
	rest io.Reader
}

// readBody reads the start of body into buf. A read error other than the
// body's end keeps rest set, so the decoder meets it where it would have.
func readBody(body io.Reader, buf *bodyBuf) sweepBody {
	n, err := io.ReadFull(body, buf[:])
	b := sweepBody{head: buf[:n]}
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		b.rest = body
	}
	return b
}

// reader returns the body from its first byte.
func (b sweepBody) reader() io.Reader {
	if b.rest == nil {
		return bytes.NewReader(b.head)
	}
	return io.MultiReader(bytes.NewReader(b.head), b.rest)
}

// get returns the key memoized for b. A body longer than memoBodyMax is
// never memoized.
func (m *bodyMemo) get(b sweepBody) (sweepKey, bool) {
	if b.rest != nil {
		return sweepKey{}, false
	}
	m.mu.Lock()
	k, ok := m.keys[string(b.head)]
	m.mu.Unlock()
	return k, ok
}

// decode strictly decodes b into req with decodeRequest and memoizes the
// body once it decoded, validated and hashed cleanly and fits memoBodyMax.
// Two spellings of one request are two entries with one hash.
func (m *bodyMemo) decode(b sweepBody, req *blitzcoin.Request) (blitzcoin.Request, string, error) {
	norm, hash, err := decodeRequest(b.reader(), "request", req, req)
	if err != nil || b.rest != nil {
		return norm, hash, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.keys[string(b.head)]; !ok {
		if m.keys == nil || m.bytes+len(b.head) > memoBytesMax {
			m.keys, m.bytes = make(map[string]sweepKey), 0
		}
		m.keys[string(b.head)] = sweepKey{string(norm.Kind), hash}
		m.bytes += len(b.head)
	}
	return norm, hash, nil
}
