package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"gea"
)

// The benchmark's own tracing, used only by the traced replay. Spans
// are recorded around each public call the replay makes: the request,
// its decode, SessionManager.Run or System.IngestAppendCtx, and the
// reply encode. Under SessionManager.Run the operator spans the
// program's ObsCollector already records are nested in. Spans stay in
// memory and are reduced to per-layer self times when the run ends.

// span is one timed interval of one request.
type span struct {
	req    int64
	name   string
	parent int // index of the parent span; -1 for a request's root
	start  int64
	end    int64 // ns since the tracer's epoch
}

// tracer collects spans from concurrent callers. A nil tracer records
// nothing, which is the untraced replay.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its index.
func (t *tracer) begin(req int64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{req: req, name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// adopt nests the operator records a collector gathered during span
// parent. Records carry durations, not start times; the operator spans
// of one invocation run one after another, so siblings are laid end to
// end from their parent's start, which preserves every self time.
func (t *tracer) adopt(req int64, parent int, recs []*gea.ObsRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].start
	for _, r := range recs {
		at = t.place(req, parent, at, r)
	}
}

// place records r at start and its children inside it, returning r's
// end; the lock is held.
func (t *tracer) place(req int64, parent int, start int64, r *gea.ObsRecord) int64 {
	t.spans = append(t.spans, span{req: req, name: "op:" + r.Op, parent: parent, start: start, end: start + r.WallNS})
	id := len(t.spans) - 1
	at := start
	for _, c := range r.Children {
		at = t.place(req, id, at, c)
	}
	return start + r.WallNS
}

// layerOf maps a span name onto the layer its self time is charged to.
func layerOf(name string) string {
	switch {
	case name == "request":
		return "request"
	case name == "serve.decode":
		return "decode"
	case name == "serve.encode":
		return "encode"
	case name == "session.run":
		return "session"
	case name == "ingest.append", strings.HasPrefix(name, "op:ingest."):
		return "ingest"
	case strings.HasPrefix(name, "op:"):
		return "operator"
	}
	return "other"
}

// layers lists the self-time layers in report order.
var layers = []string{"request", "decode", "session", "operator", "encode", "ingest"}

// selfTimes is the reduction of a traced run.
type selfTimes struct {
	// meanMS is each layer's self time per request, in ms.
	meanMS map[string]float64
	// requests and spans count what the reduction covered.
	requests, spans int
	// maxErr is the largest |sum of self times − request wall| / wall
	// over all requests; the spans of a request must tile its wall.
	maxErr float64
}

// reduce computes each span's self time — its duration minus the part
// of it that its children cover — and sums them per layer.
func (t *tracer) reduce() selfTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	byReq := map[int64][]int{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
		byReq[s.req] = append(byReq[s.req], i)
	}
	out := selfTimes{meanMS: map[string]float64{}, requests: len(byReq), spans: len(t.spans)}
	for _, ids := range byReq {
		var sum, wall int64
		for _, i := range ids {
			s := t.spans[i]
			self := (s.end - s.start) - covered(t.spans, children[i], s.start, s.end)
			sum += self
			out.meanMS[layerOf(s.name)] += float64(self) / 1e6
			if s.parent < 0 {
				wall = s.end - s.start
			}
		}
		if wall > 0 {
			d := float64(sum-wall) / float64(wall)
			if d < 0 {
				d = -d
			}
			out.maxErr = max(out.maxErr, d)
		}
	}
	if out.requests > 0 {
		for k := range out.meanMS {
			out.meanMS[k] /= float64(out.requests)
		}
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curB = -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
