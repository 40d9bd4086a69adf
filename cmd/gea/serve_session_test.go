package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gea"
)

// sessionMux builds a cached session-serving mux over the small
// synthetic corpus.
func sessionMux(t *testing.T, opts serveOptions) (*gateway, *http.ServeMux) {
	t.Helper()
	res, err := gea.Generate(gea.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace := gea.NewObsCollector()
	sys, err := gea.NewSystem(res.Corpus, gea.SystemOptions{
		User:        "serve-session-test",
		ResultCache: &gea.ResultCacheOptions{Metrics: trace.Metrics},
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	return newServeMux(sys, trace, opts)
}

// do runs one request through the mux without a network listener.
func do(t *testing.T, mux *http.ServeMux, method, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, url, nil)
	} else {
		r = httptest.NewRequest(method, url, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, r)
	return rr
}

// TestServeSessionConformance walks the whole HTTP contract in one
// session lifetime: 201 create, 409 double create, 200 use (computed
// then hit, identical bodies), lineage listing, 400 caller faults, 404
// unknown, 204 close, 410 after close.
func TestServeSessionConformance(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{})

	rr := do(t, mux, http.MethodPost, "/session", `{"id":"alpha","tenant":"acme"}`)
	if rr.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rr.Code, rr.Body.String())
	}
	var info gea.SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" || info.Tenant != "acme" {
		t.Fatalf("created info = %+v", info)
	}

	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"alpha"}`); rr.Code != http.StatusConflict {
		t.Errorf("double create = %d, want 409: %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, mux, http.MethodGet, "/session/alpha", ""); rr.Code != http.StatusOK {
		t.Errorf("get = %d", rr.Code)
	}
	if rr := do(t, mux, http.MethodGet, "/session/ghost", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown get = %d, want 404", rr.Code)
	}

	// Run the same operator twice: computed, then a cache hit with an
	// identical wire body.
	runBody := `{"op":"aggregate","params":{"tissue":"brain"}}`
	first := do(t, mux, http.MethodPost, "/session/alpha/run", runBody)
	if first.Code != http.StatusOK {
		t.Fatalf("first run = %d: %s", first.Code, first.Body.String())
	}
	second := do(t, mux, http.MethodPost, "/session/alpha/run", runBody)
	if second.Code != http.StatusOK {
		t.Fatalf("second run = %d: %s", second.Code, second.Body.String())
	}
	var r1, r2 map[string]any
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r1["source"] != "computed" || r2["source"] != "hit" {
		t.Errorf("sources = %v, %v; want computed then hit", r1["source"], r2["source"])
	}
	if r2["cached"] != true {
		t.Errorf("hit not flagged cached: %v", r2["cached"])
	}
	if !reflect.DeepEqual(r1["result"], r2["result"]) {
		t.Error("cached wire body diverges from the computed one")
	}
	if r1["units"] != r2["units"] {
		t.Errorf("hit units %v != computed units %v", r2["units"], r1["units"])
	}

	rr = do(t, mux, http.MethodGet, "/session/alpha/lineage", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("lineage = %d", rr.Code)
	}
	var nodes []gea.SessionLineageNode
	if err := json.Unmarshal(rr.Body.Bytes(), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Errorf("lineage lists %d nodes, want 2", len(nodes))
	}

	// Caller faults are 400s, not 500s.
	for _, body := range []string{
		`{"op":"transmogrify"}`,
		`{"op":"mine","params":{"k":"many"}}`,
		`{"op":"diff","params":{"a":"brain","b":"brain"}}`,
		`{"op":"rangesearch","params":{"firsttag":"500","lasttag":"100"}}`,
		`{"op":"rangesearch","params":{"firsttag":"-1"}}`,
		`{"op":"rangesearch","params":{"lasttag":"-5"}}`,
		`{"op":"rangesearch","params":{"firsttag":"4294967296"}}`,
		`{"op":"rangesearch","params":{"a":"brain","b":"breast","firsttag":"4294967295"}}`,
		`not json`,
	} {
		if rr := do(t, mux, http.MethodPost, "/session/alpha/run", body); rr.Code != http.StatusBadRequest {
			t.Errorf("run %s = %d, want 400", body, rr.Code)
		}
	}

	if rr := do(t, mux, http.MethodDelete, "/session/alpha", ""); rr.Code != http.StatusNoContent {
		t.Fatalf("delete = %d", rr.Code)
	}
	// Closed IDs answer 410 everywhere, never 404.
	if rr := do(t, mux, http.MethodGet, "/session/alpha", ""); rr.Code != http.StatusGone {
		t.Errorf("get after close = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodPost, "/session/alpha/run", runBody); rr.Code != http.StatusGone {
		t.Errorf("run after close = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodGet, "/session/alpha/lineage", ""); rr.Code != http.StatusGone {
		t.Errorf("lineage after close = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodDelete, "/session/ghost", ""); rr.Code != http.StatusNotFound {
		t.Errorf("delete unknown = %d, want 404", rr.Code)
	}
}

// TestServeSessionExpiry pins the 410 path for idle expiry and that the
// expired ID is re-creatable.
func TestServeSessionExpiry(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{sessionExpiry: 10 * time.Millisecond})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"idle"}`); rr.Code != http.StatusCreated {
		t.Fatalf("create = %d", rr.Code)
	}
	time.Sleep(30 * time.Millisecond)
	if rr := do(t, mux, http.MethodGet, "/session/idle", ""); rr.Code != http.StatusGone {
		t.Fatalf("expired get = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"idle"}`); rr.Code != http.StatusCreated {
		t.Errorf("recreate expired = %d, want 201", rr.Code)
	}
}

// TestServeSessionTableFull pins the 503 + Retry-After path when the
// session table is at capacity.
func TestServeSessionTableFull(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{maxSessions: 1})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"a"}`); rr.Code != http.StatusCreated {
		t.Fatalf("create = %d", rr.Code)
	}
	rr := do(t, mux, http.MethodPost, "/session", `{"id":"b"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("create past capacity = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if rr := do(t, mux, http.MethodDelete, "/session/a", ""); rr.Code != http.StatusNoContent {
		t.Fatal("close")
	}
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"b"}`); rr.Code != http.StatusCreated {
		t.Errorf("create after close = %d, want 201", rr.Code)
	}
}

// TestServeSessionDrainRefuses pins that a draining server refuses new
// session work with 503 + Retry-After before touching the table.
func TestServeSessionDrainRefuses(t *testing.T) {
	gw, mux := sessionMux(t, serveOptions{})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"a"}`); rr.Code != http.StatusCreated {
		t.Fatal("create")
	}
	gw.draining.Store(true)
	for _, probe := range []struct{ method, url, body string }{
		{http.MethodPost, "/session", `{"id":"b"}`},
		{http.MethodPost, "/session/a/run", `{"op":"aggregate"}`},
	} {
		rr := do(t, mux, probe.method, probe.url, probe.body)
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining = %d, want 503", probe.method, probe.url, rr.Code)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s: 503 without Retry-After", probe.method, probe.url)
		}
	}
}

// TestServeSessionBudgetPartial pins the degraded-mode contract at the
// HTTP layer: a budget-starved run is a 200 with the partial flagged,
// and the truncation is never served to the next caller.
func TestServeSessionBudgetPartial(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"p"}`); rr.Code != http.StatusCreated {
		t.Fatal("create")
	}
	rr := do(t, mux, http.MethodPost, "/session/p/run",
		`{"op":"aggregate","params":{"tissue":"brain"},"budget":3}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("starved run = %d: %s", rr.Code, rr.Body.String())
	}
	var starved map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &starved); err != nil {
		t.Fatal(err)
	}
	if starved["partial"] != true {
		t.Fatalf("starved run not flagged partial: %s", rr.Body.String())
	}
	if starved["cached"] == true {
		t.Fatal("partial flagged cached")
	}
	// The next full-budget identical request must compute fresh — a hit
	// here would mean the cache served the truncation.
	rr = do(t, mux, http.MethodPost, "/session/p/run",
		`{"op":"aggregate","params":{"tissue":"brain"}}`)
	var full map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full["source"] != "computed" || full["partial"] == true {
		t.Fatalf("full run after partial: source=%v partial=%v, want computed/false",
			full["source"], full["partial"])
	}
}
