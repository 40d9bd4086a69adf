package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
)

// This file reads session-run replies as "gea serve" writes them
// without JSON-decoding the result: the small header before the
// top-level "result" key is parsed, the result bytes are hashed as they
// stream, and a short tail is kept so populate's trailing "stats" object
// can be read. Neither step depends on how the reply is laid out
// (indented or compact). The client shares the machine's cores with the
// server, so it must stay cheap on 100 MB replies.

// hashSeed keys every result hash of one process, so hashes compare
// across tenants, sources and generations within a run.
var hashSeed = maphash.MakeSeed()

// runHeader is the reply accounting the benchmark reads.
type runHeader struct {
	Generation uint64 `json:"generation"`
	Units      int64  `json:"units"`
	Partial    bool   `json:"partial"`
	Source     string `json:"source"`
	WallNS     int64  `json:"wall_ns"`
}

// popStats is the subset of populate's result stats the columnar layer
// metrics need.
type popStats struct {
	BlocksScanned int64
	BlocksSkipped int64
	BytesDecoded  int64
}

// reply is one read session-run reply.
type reply struct {
	runHeader
	hash  uint64
	bytes int64
	stats *popStats // populate replies only
}

const (
	maxHeader = 8 << 10
	tailKeep  = 4 << 10
)

// readReply streams one session-run reply from r.
func readReply(r io.Reader, op string) (reply, error) {
	var out reply
	var head, tail []byte
	h := maphash.Hash{}
	h.SetSeed(hashSeed)
	inResult := false
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		chunk := buf[:n]
		out.bytes += int64(n)
		if !inResult && n > 0 {
			head = append(head, chunk...)
			key, val, found := resultField(head)
			if !found && len(head) > maxHeader {
				return out, errors.New("reply has no result field in its first 8 KiB")
			}
			if found {
				hdr := append(append([]byte(nil), bytes.TrimRight(head[:key], ", \t\r\n")...), '}')
				if jerr := json.Unmarshal(hdr, &out.runHeader); jerr != nil {
					return out, fmt.Errorf("parsing reply header: %w", jerr)
				}
				inResult = true
				chunk = head[val:]
			}
		}
		if inResult && len(chunk) > 0 {
			h.Write(chunk)
			tail = append(tail, chunk...)
			if len(tail) > 2*tailKeep {
				tail = append(tail[:0], tail[len(tail)-tailKeep:]...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	if !inResult {
		return out, errors.New("reply has no result field")
	}
	out.hash = h.Sum64()
	if op == "populate" {
		st, err := tailStats(tail)
		if err != nil {
			return out, err
		}
		out.stats = st
	}
	return out, nil
}

// resultField finds the top-level "result" key of a JSON object whose
// opening bytes are in head: key is the offset of the key's opening
// quote and val that of its value. found is false until the value's
// first byte is in head.
func resultField(head []byte) (key, val int, found bool) {
	depth, start := 0, -1
	inString, escaped := false, false
	for i := 0; i < len(head); i++ {
		c := head[i]
		if inString {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
				if depth == 1 && string(head[start+1:i]) == "result" {
					if v, ok := valueAfterColon(head, i+1); ok {
						return start, v, true
					}
				}
			}
			continue
		}
		switch c {
		case '"':
			inString, start = true, i
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	return 0, 0, false
}

// valueAfterColon skips whitespace, a colon and whitespace from i and
// returns the offset of the value that follows; ok is false when no
// colon follows (the string was a value, not a key) or the value has
// not arrived yet.
func valueAfterColon(b []byte, i int) (int, bool) {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	return i, i < len(b)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// statsKey is populate's "stats" key, the last field of its result.
var statsKey = []byte(`"stats"`)

// tailStats reads populate's "stats" object from the reply's tail.
func tailStats(tail []byte) (*popStats, error) {
	i := bytes.LastIndex(tail, statsKey)
	if i < 0 {
		return nil, errors.New("populate reply carries no stats")
	}
	v, ok := valueAfterColon(tail, i+len(statsKey))
	if !ok {
		return nil, errors.New("populate stats object is truncated")
	}
	var st popStats
	if err := json.NewDecoder(bytes.NewReader(tail[v:])).Decode(&st); err != nil {
		return nil, fmt.Errorf("parsing populate stats: %w", err)
	}
	return &st, nil
}

// encodeLikeServer renders v with the settings of the server's
// writeJSON, so an in-process replay produces the wire bytes.
func encodeLikeServer(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
