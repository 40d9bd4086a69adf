package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gea"
)

// requestTimeout mirrors gea serve's default per-request deadline.
const requestTimeout = 30 * time.Second

// serveOptions are the SystemOptions "gea serve" builds from its flag
// defaults (workers 1, max-concurrent 4, admit-timeout 2s, result cache
// 256 entries / 64 MiB), recording into col like the server's collector.
func serveOptions(col *gea.ObsCollector) gea.SystemOptions {
	return gea.SystemOptions{
		User:             "serve",
		Workers:          1,
		MaxConcurrent:    gea.DefaultMaxConcurrent,
		MaxQueue:         gea.DefaultMaxQueue,
		AdmitTimeout:     2 * time.Second,
		AdmissionMetrics: col.Metrics,
		ResultCache: &gea.ResultCacheOptions{
			MaxEntries: gea.DefaultCacheMaxEntries,
			MaxBytes:   gea.DefaultCacheMaxBytes,
			Metrics:    col.Metrics,
		},
	}
}

// coldOptions build a System without a result cache, so every session
// run computes.
func coldOptions() gea.SystemOptions {
	return gea.SystemOptions{User: "bench", Workers: 1}
}

// inproc drives a System in this process through SessionManager.Run
// and System.IngestAppendCtx. With serveLike set it reproduces the HTTP
// handler around those calls (request decode, reply encode with the
// server's writeJSON settings), so a replay does the work a served
// request does minus the socket.
type inproc struct {
	sys *gea.System
	mgr *gea.SessionManager
	// srv is the server-equivalent collector: serving metrics, and the
	// operator spans every untraced served request records.
	srv       *gea.ObsCollector
	sids      []string
	checkSID  string
	serveLike bool
	tr        *tracer
	allocs    bool
	reqSeq    atomic.Int64

	// Repeated-key check state (cache-less runs): the units of each
	// key's first run, and every mismatch found.
	mu         sync.Mutex
	firstUnits map[string]int64
	bad        []string
}

// newInproc wraps sys with a session per caller.
func newInproc(sys *gea.System, srv *gea.ObsCollector, callers int, serveLike bool) (*inproc, error) {
	p := &inproc{sys: sys, srv: srv, serveLike: serveLike, firstUnits: map[string]int64{}}
	var reg *gea.ObsRegistry
	if srv != nil {
		reg = srv.Metrics
	}
	p.mgr = gea.NewSessionManager(sys, gea.SessionOptions{Metrics: reg})
	for i := 0; i <= callers; i++ {
		info, err := p.mgr.Create("", fmt.Sprintf("client-%d", i))
		if err != nil {
			return nil, err
		}
		if i == callers {
			p.checkSID = info.ID
		} else {
			p.sids = append(p.sids, info.ID)
		}
	}
	return p, nil
}

// ctx returns the context a request runs under: the server's collector
// when untraced (as gea serve installs it), a fresh per-request
// collector when traced so the request's operator spans can be nested.
func (p *inproc) ctx() (context.Context, context.CancelFunc, *gea.ObsCollector) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	col := p.srv
	if p.tr != nil {
		col = gea.NewObsCollector()
	}
	return gea.WithObsCollector(ctx, col), cancel, col
}

// run performs one session run for caller client.
func (p *inproc) run(client int, c call) sample {
	body, err := json.Marshal(c.request())
	if err != nil {
		return sample{err: err}
	}
	var m0, m1 runtime.MemStats
	if p.allocs {
		runtime.ReadMemStats(&m0)
	}
	tr, id := p.tr, p.reqSeq.Add(1)
	start := time.Now()
	root := tr.begin(id, "request", -1)
	req := c.request()
	if p.serveLike {
		d := tr.begin(id, "serve.decode", root)
		req = gea.SessionRequest{}
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		tr.end(d)
	}
	var resp *gea.SessionResponse
	var dispatch time.Duration
	var out []byte
	if err == nil {
		ctx, cancel, col := p.ctx()
		sp := tr.begin(id, "session.run", root)
		t0 := time.Now()
		resp, err = p.mgr.Run(ctx, p.sids[client], req)
		dispatch = time.Since(t0)
		tr.end(sp)
		cancel()
		if tr != nil {
			tr.adopt(id, sp, col.Roots())
		}
	}
	if err == nil && p.serveLike {
		e := tr.begin(id, "serve.encode", root)
		out, err = encodeLikeServer(resp)
		tr.end(e)
	}
	tr.end(root)
	s := sample{lat: time.Since(start), dispatch: dispatch, err: err}
	if p.allocs {
		runtime.ReadMemStats(&m1)
		s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	}
	if err != nil {
		return s
	}
	if p.serveLike {
		s.rep, s.err = readReply(bytes.NewReader(out), c.Op)
		return s
	}
	s.rep.runHeader = runHeader{Generation: resp.Generation, Units: resp.Units,
		Partial: resp.Partial, Source: resp.Source, WallNS: resp.WallNS}
	s.untimed = p.checkRepeat(c, resp)
	return s
}

// checkRepeat verifies a cache-less run: when a key comes round again,
// it is computed once more, untimed, and the two results must be
// deeply equal, with units equal to the key's first run. It returns the
// time the check took.
func (p *inproc) checkRepeat(c call, resp *gea.SessionResponse) time.Duration {
	p.mu.Lock()
	first, seen := p.firstUnits[c.Key]
	if !seen {
		p.firstUnits[c.Key] = resp.Units
	}
	p.mu.Unlock()
	if !seen {
		return 0
	}
	start := time.Now()
	var bad []string
	if first != resp.Units {
		bad = append(bad, fmt.Sprintf("%s: units %d on repeat, %d on first run", c.Key, resp.Units, first))
	}
	again, err := p.mgr.Run(context.Background(), p.checkSID, c.request())
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("%s: recompute failed: %v", c.Key, err))
	case !sameResult(resp.Result, again.Result):
		bad = append(bad, fmt.Sprintf("%s: repeated key computed a different result", c.Key))
	}
	p.mu.Lock()
	p.bad = append(p.bad, bad...)
	p.mu.Unlock()
	return time.Since(start)
}

// sameResult compares two results deeply, falling back to their JSON
// hashes (which treat equal NaN payloads alike) when DeepEqual says no.
func sameResult(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	ja, errA := encodeLikeServer(a)
	jb, errB := encodeLikeServer(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// ingestResponse mirrors the JSON body gea serve answers POST /ingest
// with.
type ingestResponse struct {
	*gea.IngestReport
	Generation uint64 `json:"generation"`
	State      string `json:"state,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
}

// appendBatch performs one append of an encoded batch the way the
// POST /ingest handler does.
func (p *inproc) appendBatch(body []byte) sample {
	tr, id := p.tr, p.reqSeq.Add(1)
	start := time.Now()
	root := tr.begin(id, "request", -1)
	d := tr.begin(id, "serve.decode", root)
	batch, err := gea.DecodeIngestBatch(bytes.NewReader(body))
	tr.end(d)
	var s sample
	if err == nil {
		ctx, cancel, col := p.ctx()
		lim, state := p.sys.ShapeLimits(gea.ExecLimits{Workers: 1})
		a := tr.begin(id, "ingest.append", root)
		var rep *gea.IngestReport
		rep, _, err = p.sys.IngestAppendCtx(ctx, batch, lim)
		tr.end(a)
		cancel()
		if tr != nil {
			tr.adopt(id, a, col.Roots())
		}
		if err == nil {
			s.appended, s.gen = rep.Appended, p.sys.Generation()
			e := tr.begin(id, "serve.encode", root)
			_, err = encodeLikeServer(ingestResponse{IngestReport: rep, Generation: s.gen,
				State: state.String(), Degraded: state != gea.AdmissionHealthy})
			tr.end(e)
		}
	}
	tr.end(root)
	s.lat, s.err = time.Since(start), err
	return s
}

// lineageNodes counts the lineage nodes the callers' sessions hold.
func (p *inproc) lineageNodes() (int, error) {
	n := 0
	for _, id := range p.sids {
		nodes, err := p.mgr.Lineage(id)
		if err != nil {
			return 0, err
		}
		n += len(nodes)
	}
	return n, nil
}
