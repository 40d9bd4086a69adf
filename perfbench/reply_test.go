package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/iotest"

	"gea"
)

// populateReply is a session-run reply shaped like gea serve's: the
// accounting header, then the result, whose last field is populate's
// stats. A header value spelled "result" must not be taken for the key.
func populateReply(t *testing.T, indent bool, rows int) []byte {
	t.Helper()
	v := gea.SessionResponse{
		Session: "s1", Op: "populate", Generation: 3, Units: 42,
		Source: "hit", Cached: true, WallNS: 1234, Node: "result",
		Result: map[string]any{
			"rows":  rows,
			"stats": map[string]int64{"BlocksScanned": 13, "BlocksSkipped": 10, "BytesDecoded": 4096},
		},
	}
	if indent {
		b, err := encodeLikeServer(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadReplyLayouts reads the same reply indented (as writeJSON
// writes it today) and compact, delivered one byte at a time so the
// result key straddles reads: both must yield the header, the stats and
// a hash that tells different results apart.
func TestReadReplyLayouts(t *testing.T) {
	for _, indent := range []bool{true, false} {
		raw := populateReply(t, indent, 7)
		rep, err := readReply(iotest.OneByteReader(bytes.NewReader(raw)), "populate")
		if err != nil {
			t.Fatalf("indent=%v: %v", indent, err)
		}
		want := runHeader{Generation: 3, Units: 42, Source: "hit", WallNS: 1234}
		if rep.runHeader != want {
			t.Errorf("indent=%v: header %+v, want %+v", indent, rep.runHeader, want)
		}
		if rep.bytes != int64(len(raw)) {
			t.Errorf("indent=%v: read %d bytes of %d", indent, rep.bytes, len(raw))
		}
		if st := rep.stats; st == nil || *st != (popStats{13, 10, 4096}) {
			t.Errorf("indent=%v: stats %+v", indent, st)
		}
		same, err := readReply(bytes.NewReader(raw), "populate")
		if err != nil || same.hash != rep.hash {
			t.Errorf("indent=%v: the same reply hashed differently (%v)", indent, err)
		}
		other, err := readReply(bytes.NewReader(populateReply(t, indent, 8)), "populate")
		if err != nil || other.hash == rep.hash {
			t.Errorf("indent=%v: a different result hashed the same (%v)", indent, err)
		}
	}
	if _, err := readReply(bytes.NewReader([]byte(`{"op":"select","units":1}`)), "select"); err == nil {
		t.Error("a reply without a result field was accepted")
	}
}
