package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"

	"gea"
)

// The traced run. It replays the workload's request stream in this
// process with the same seed twice, each on a freshly set-up System:
// once untraced, once with the benchmark's spans and per-request
// operator collectors. On the served workloads it first drives the same
// stream over HTTP against gea serve, whose replies give the serve
// layer's metrics; every other per-layer metric comes from the traced
// replay, and the untraced one is the base of the tracing overhead. The
// run's seconds are split evenly between its parts. End-to-end metrics
// never come from here.

// replayed is one in-process replay's log and end-of-run readings.
type replayed struct {
	log     *runLog
	p       *inproc
	snap    gea.ObsSnapshot
	cache   gea.ResultCacheStats
	lineage int
	units   map[string]int64 // exec units of each op's probe call
	ingest  map[string]any
	checks  []string
}

// buildReplaySystem sets up the System a workload's replay runs on:
// cache-less for ops-cold, gea serve's defaults otherwise, over a fresh
// append store for ingest-mixed.
func buildReplaySystem(o options, info *corpusInfo, tag string) (*gea.System, *gea.ObsCollector, string, error) {
	if o.workload == opsCold {
		sys, err := gea.NewSystem(info.corpus, coldOptions())
		return sys, nil, "", err
	}
	col := gea.NewObsCollector()
	opts := serveOptions(col)
	if o.workload == serveSessions {
		sys, err := gea.NewSystem(info.corpus, opts)
		return sys, col, "", err
	}
	dir := filepath.Join(o.work, "store-"+tag)
	if err := gea.SaveCorpus(dir, info.corpus); err != nil {
		return nil, nil, "", err
	}
	st, loaded, _, err := gea.OpenIngestStore(gea.OSFS, dir, gea.DefaultIngestRetry())
	if err != nil {
		return nil, nil, "", err
	}
	opts.Ingest = &gea.SystemIngestOptions{Store: st, Metrics: col.Metrics}
	sys, err := gea.NewSystem(loaded, opts)
	return sys, col, dir, err
}

// replayOnce runs one in-process replay for seconds.
func replayOnce(o options, info *corpusInfo, seconds float64, traced bool) (*replayed, error) {
	tag := "untraced"
	if traced {
		tag = "traced"
	}
	sys, col, dir, err := buildReplaySystem(o, info, tag)
	if err != nil {
		return nil, fmt.Errorf("setting up the %s replay: %w", tag, err)
	}
	p, err := newInproc(sys, col, o.callers(), o.workload != opsCold)
	if err != nil {
		return nil, err
	}
	if traced {
		p.tr = newTracer()
		// Allocation per call is only attributable with one caller.
		p.allocs = o.workload == opsCold
	}
	bodies, names, err := o.appendBodies()
	if err != nil {
		return nil, err
	}
	streams, round := o.streams(info)
	var rss0, rss1, store0, store1 float64
	if dir != "" {
		rss0, store0 = procMemMiB("self", "VmRSS"), dirMiB(dir)
	}
	log := drive(plan{streams: streams, round: round, seconds: seconds, appends: len(bodies)},
		func(ci, _ int, c call) sample { return p.run(ci, c) },
		func(i int) sample {
			s := p.appendBatch(bodies[i])
			if i == len(bodies)-1 {
				rss1, store1 = procMemMiB("self", "VmRSS"), dirMiB(dir)
			}
			return s
		})
	r := &replayed{log: log, p: p, cache: sys.ResultCacheStats(), units: map[string]int64{}}
	if col != nil {
		r.snap = col.Metrics.Snapshot()
	}
	r.checks = append(checkReplies(log.samples), p.bad...)
	if r.lineage, err = p.lineageNodes(); err != nil {
		r.checks = append(r.checks, "reading lineage: "+err.Error())
	}
	if dir != "" {
		r.checks = append(r.checks, checkIngest(log.appends(), names, sys.Generation())...)
		r.ingest = ingestFigures(log.appends(), r.snap, rss0, rss1, store0, store1, dirMiB(dir))
	}
	for _, c := range probeCalls(info) {
		resp, err := p.mgr.Run(context.Background(), p.checkSID, c.request())
		if err != nil {
			r.checks = append(r.checks, fmt.Sprintf("probe %s: %v", c.Key, err))
			continue
		}
		r.units[c.Op] = resp.Units
	}
	return r, nil
}

// probeCalls are one fixed, cheap call per operator whose exec units are
// reported: a count that must repeat exactly for a given seed, so a
// change that alters how much work an operator does shows.
func probeCalls(info *corpusInfo) []call {
	t, p := info.tissues[0], info.pairs[0]
	w := max(len(info.tags)/100, 1)
	return []call{
		newCall("aggregate", "tissue", t),
		newCall("select", "tissue", t, "minmean", "5"),
		newCall("diff", "a", p[0], "b", p[1]),
		newCall("topgap", "a", p[0], "b", p[1], "x", "10"),
		newCall("populate", "tissue", t),
		newCall("mine", "tissue", t),
		newCall("rangesearch", "a", p[0], "b", p[1], "lo", "5", "hi", "40",
			"firsttag", strconv.FormatUint(uint64(info.tags[0]), 10),
			"lasttag", strconv.FormatUint(uint64(info.tags[w-1]), 10)),
	}
}

// runTraced performs the HTTP pass (served workloads), the untraced and
// the traced replay, and reduces them to the per-layer metrics.
func runTraced(o options, info *corpusInfo) (*outcome, error) {
	part := o.seconds / 2
	var served *outcome
	if o.workload != opsCold {
		part = o.seconds / 3
		oh := o
		oh.seconds = part
		var err error
		if served, err = runServed(oh, info, 1); err != nil {
			return nil, fmt.Errorf("HTTP pass: %w", err)
		}
	}
	base, err := replayOnce(o, info, part, false)
	if err != nil {
		return nil, err
	}
	baseThr := base.throughput()
	// Return the first replay's heap before the second sets up.
	runtime.GC()
	debug.FreeOSMemory()
	r, err := replayOnce(o, info, part, true)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(r)
	m.set("trace.overhead_ratio", "ratio", baseThr/r.throughput(), len(r.log.samples))
	out := finish(r.log, m, r.checks)
	if served != nil {
		for k, v := range served.serve {
			m[k] = v
		}
		out.attempted += served.attempted
		out.failed += served.failed
		for _, c := range served.checks {
			out.checks = append(out.checks, "HTTP pass: "+c)
		}
		out.correct = len(out.checks) == 0
		out.report["http_pass"] = map[string]any{"error_ratio": served.report["error_ratio"],
			"per_op": served.report["per_op"], "served": served.report["served"]}
	}
	out.report["untraced_replay_ops_s"] = baseThr
	out.report["traced_replay_ops_s"] = r.throughput()
	return out, nil
}

// throughput is a replay's calls per second, as for the measured runs.
func (r *replayed) throughput() float64 {
	return r.log.throughput()
}
