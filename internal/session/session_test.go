package session

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gea/internal/admission"
	"gea/internal/obs"
	"gea/internal/rescache"
	"gea/internal/sagegen"
	"gea/internal/system"
)

// newSessionSystem builds a cached, tenant-governed system over the
// small synthetic corpus. The registry carries the cache.*, tenant.*
// and (via NewManager) session.* series.
func newSessionSystem(t *testing.T) (*system.System, *obs.Registry) {
	t.Helper()
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys, err := system.New(res.Corpus, system.Options{
		User:        "session-test",
		ResultCache: &rescache.Options{Metrics: reg},
		TenantPolicy: &admission.TenantPolicy{
			Envelope: 1 << 40, // effectively unlimited: lifecycle tests aren't about throttling
			Metrics:  reg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, reg
}

func counterOf(snap obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

func gaugeOf(snap obs.Snapshot, name string) int64 {
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return -1
}

// TestSessionLifecycleConformance walks the whole error contract:
// create, duplicate create, get, close, unknown vs expired reads.
func TestSessionLifecycleConformance(t *testing.T) {
	sys, reg := newSessionSystem(t)
	m := NewManager(sys, Options{Metrics: reg})

	info, err := m.Create("alpha", "acme")
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" || info.Tenant != "acme" || info.Runs != 0 {
		t.Fatalf("created info = %+v", info)
	}

	// Double create is a conflict, typed for errors.As.
	_, err = m.Create("alpha", "acme")
	var exists *ErrSessionExists
	if !errors.As(err, &exists) || exists.ID != "alpha" {
		t.Fatalf("duplicate create: err=%v, want *ErrSessionExists{alpha}", err)
	}

	// Unknown reads are 404-shaped, not 410-shaped.
	if _, err := m.Get("ghost"); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("unknown get: err=%v, want ErrSessionUnknown", err)
	}
	if err := m.Close("ghost"); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("unknown close: err=%v, want ErrSessionUnknown", err)
	}

	if got, err := m.Get("alpha"); err != nil || got.ID != "alpha" {
		t.Fatalf("get = %+v, %v", got, err)
	}
	if err := m.Close("alpha"); err != nil {
		t.Fatal(err)
	}
	// Closed IDs answer expired (410), never unknown (404).
	if _, err := m.Get("alpha"); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("closed get: err=%v, want ErrSessionExpired", err)
	}
	if _, err := m.Lineage("alpha"); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("closed lineage: err=%v, want ErrSessionExpired", err)
	}
	if m.Active() != 0 {
		t.Fatalf("active = %d after close, want 0", m.Active())
	}

	snap := reg.Snapshot()
	if got := counterOf(snap, "session.created"); got != 1 {
		t.Errorf("session.created = %d, want 1", got)
	}
	if got := counterOf(snap, "session.closed"); got != 1 {
		t.Errorf("session.closed = %d, want 1", got)
	}
	if got := gaugeOf(snap, "session.active"); got != 0 {
		t.Errorf("session.active = %d, want 0", got)
	}
}

// TestSessionGeneratedIDs pins that empty IDs get distinct generated
// names.
func TestSessionGeneratedIDs(t *testing.T) {
	sys, _ := newSessionSystem(t)
	m := NewManager(sys, Options{})
	a, err := m.Create("", "t1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create("", "t2")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || b.ID == "" || a.ID == b.ID {
		t.Fatalf("generated IDs %q, %q must be distinct and non-empty", a.ID, b.ID)
	}
	if !strings.HasPrefix(a.ID, "s") {
		t.Errorf("generated ID %q not in the s<N> namespace", a.ID)
	}
}

// TestSessionExpiryAndRecreate drives the idle clock: an over-idle
// session expires typed, its ID can be re-created (tombstone released),
// and a touch resets the timer.
func TestSessionExpiryAndRecreate(t *testing.T) {
	sys, reg := newSessionSystem(t)
	at := time.Unix(1000, 0)
	clock := func() time.Time { return at }
	m := NewManager(sys, Options{Expiry: time.Minute, Metrics: reg, Clock: clock})

	if _, err := m.Create("idle", "acme"); err != nil {
		t.Fatal(err)
	}
	// A touch inside the window keeps it alive past the original deadline.
	at = at.Add(45 * time.Second)
	if _, err := m.Get("idle"); err != nil {
		t.Fatalf("in-window get: %v", err)
	}
	at = at.Add(45 * time.Second)
	if _, err := m.Get("idle"); err != nil {
		t.Fatalf("touched session expired early: %v", err)
	}

	// Now let it rot past the whole window.
	at = at.Add(2 * time.Minute)
	if _, err := m.Get("idle"); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("expired get: err=%v, want ErrSessionExpired", err)
	}
	if got := counterOf(reg.Snapshot(), "session.expired"); got != 1 {
		t.Errorf("session.expired = %d, want 1", got)
	}

	// The ID is reusable after expiry.
	if _, err := m.Create("idle", "acme"); err != nil {
		t.Fatalf("recreate expired ID: %v", err)
	}
	if _, err := m.Get("idle"); err != nil {
		t.Fatalf("recreated session get: %v", err)
	}

	// Sweep expires in bulk.
	at = at.Add(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("Sweep() = %d, want 1", n)
	}
	if m.Active() != 0 {
		t.Fatalf("active = %d after sweep, want 0", m.Active())
	}
}

// TestSessionTableFullOverload pins the 503 path: creation past
// MaxSessions fails with *admission.ErrOverload carrying a positive
// Retry-After estimate.
func TestSessionTableFullOverload(t *testing.T) {
	sys, _ := newSessionSystem(t)
	m := NewManager(sys, Options{MaxSessions: 2})
	for _, id := range []string{"a", "b"} {
		if _, err := m.Create(id, ""); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.Create("c", "")
	var over *admission.ErrOverload
	if !errors.As(err, &over) {
		t.Fatalf("full table: err=%v, want *admission.ErrOverload", err)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("overload RetryAfter = %v, want > 0", over.RetryAfter)
	}
	// Freeing a slot makes creation work again.
	if err := m.Close("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("c", ""); err != nil {
		t.Fatalf("create after close: %v", err)
	}
}

// TestSessionRunRejectsBadParams pins that caller faults come back as
// *ParamError (the serve layer's 400) before any compute is admitted.
func TestSessionRunRejectsBadParams(t *testing.T) {
	sys, _ := newSessionSystem(t)
	m := NewManager(sys, Options{})
	if _, err := m.Create("s", ""); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown op", Request{Op: "transmogrify"}},
		{"bad int", Request{Op: "mine", Params: map[string]string{"k": "many"}}},
		{"bad float", Request{Op: "select", Params: map[string]string{"minmean": "lots"}}},
		{"bad algorithm", Request{Op: "mine", Params: map[string]string{"algorithm": "quantum"}}},
		{"diff same tissue", Request{Op: "diff", Params: map[string]string{"a": "brain", "b": "brain"}}},
		{"topgap missing tissue", Request{Op: "topgap", Params: map[string]string{"a": "brain"}}},
		{"topgap zero x", Request{Op: "topgap", Params: map[string]string{"a": "brain", "b": "breast", "x": "0"}}},
		{"inverted range", Request{Op: "rangesearch", Params: map[string]string{"lo": "9", "hi": "1"}}},
		{"inverted tags", Request{Op: "rangesearch", Params: map[string]string{"firsttag": "500", "lasttag": "100"}}},
		{"negative firsttag", Request{Op: "rangesearch", Params: map[string]string{"firsttag": "-1"}}},
		{"negative lasttag", Request{Op: "rangesearch", Params: map[string]string{"lasttag": "-5"}}},
		{"firsttag past uint32", Request{Op: "rangesearch", Params: map[string]string{"firsttag": "4294967296"}}},
		{"lasttag past uint32", Request{Op: "rangesearch", Params: map[string]string{"lasttag": "99999999999"}}},
		// lasttag absent or 0 means the corpus's last tag, which only
		// the compute step knows; a firsttag above it is still a 400.
		{"firsttag past last tag", Request{Op: "rangesearch", Params: map[string]string{"a": "brain", "firsttag": "4294967295"}}},
		{"firsttag past last tag, lasttag 0", Request{Op: "rangesearch", Params: map[string]string{"a": "brain", "firsttag": "4294967295", "lasttag": "0"}}},
		{"populate no tissue", Request{Op: "populate"}},
		{"unknown tissue", Request{Op: "aggregate", Params: map[string]string{"tissue": "gills"}}},
	}
	for _, tc := range cases {
		_, err := m.Run(ctx, "s", tc.req)
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err=%v, want *ParamError", tc.name, err)
		}
	}
	// Runs against dead sessions fail typed before touching the op table.
	if _, err := m.Run(ctx, "nope", Request{Op: "aggregate"}); !errors.Is(err, ErrSessionUnknown) {
		t.Errorf("run on unknown session: err=%v, want ErrSessionUnknown", err)
	}
}

// TestSessionRangeSearchAcceptsTagBounds pins the valid side of the
// tag-bound contract: 0 still means "last tag", a one-tag window is
// fine, and the largest uint32 is a valid lasttag.
func TestSessionRangeSearchAcceptsTagBounds(t *testing.T) {
	sys, _ := newSessionSystem(t)
	m := NewManager(sys, Options{})
	if _, err := m.Create("s", ""); err != nil {
		t.Fatal(err)
	}
	for _, bounds := range []map[string]string{
		{"firsttag": "0", "lasttag": "0"},
		{"firsttag": "100", "lasttag": "100"},
		{"firsttag": "100", "lasttag": "4294967295"},
	} {
		params := map[string]string{"a": "brain", "b": "breast", "lo": "5", "hi": "40"}
		for k, v := range bounds {
			params[k] = v
		}
		if _, err := m.Run(context.Background(), "s", Request{Op: "rangesearch", Params: params}); err != nil {
			t.Errorf("%v: %v", bounds, err)
		}
	}
}

// TestSessionRunRecordsLineage pins the provenance contract: every run
// hangs a node off the session's lineage root, repeated identical runs
// reuse their node, and closing the session cascades the subtree away.
func TestSessionRunRecordsLineage(t *testing.T) {
	sys, reg := newSessionSystem(t)
	m := NewManager(sys, Options{Metrics: reg})
	if _, err := m.Create("prov", "acme"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Op: "aggregate", Params: map[string]string{"tissue": "brain"}}
	r1, err := m.Run(ctx, "prov", req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != "computed" || r1.Cached {
		t.Fatalf("first run source = %q cached=%v, want computed/false", r1.Source, r1.Cached)
	}
	r2, err := m.Run(ctx, "prov", req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != "hit" || !r2.Cached {
		t.Fatalf("second run source = %q cached=%v, want hit/true", r2.Source, r2.Cached)
	}
	if r1.Node == r2.Node {
		t.Fatalf("run nodes must be distinct per invocation, both %q", r1.Node)
	}
	if !strings.HasPrefix(r1.Node, "session/prov/aggregate#") {
		t.Fatalf("node %q not under the session lineage root", r1.Node)
	}

	nodes, err := m.Lineage("prov")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("lineage lists %d nodes, want 2: %+v", len(nodes), nodes)
	}
	for _, n := range nodes {
		if n.Operation != "aggregate" {
			t.Errorf("node %s operation = %q", n.Name, n.Operation)
		}
	}

	info, err := m.Get("prov")
	if err != nil {
		t.Fatal(err)
	}
	if info.Runs != 2 {
		t.Errorf("info.Runs = %d, want 2", info.Runs)
	}
	if got := counterOf(reg.Snapshot(), "session.runs"); got != 2 {
		t.Errorf("session.runs = %d, want 2", got)
	}

	// Close cascades the subtree: the root and both run nodes vanish.
	if err := m.Close("prov"); err != nil {
		t.Fatal(err)
	}
	if sys.Lineage.Has("session/prov") {
		t.Error("session lineage root survived Close")
	}
	for _, n := range nodes {
		if sys.Lineage.Has(n.Name) {
			t.Errorf("run node %s survived Close", n.Name)
		}
	}
}
