package main

import (
	"strings"

	"gea"
)

// spec names one metric of the result line, as BENCHMARK.json lists it.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of GEA sees, reported by every
// workload's untraced run. Per-call latency percentiles are in the
// report line (latencyMetrics says why the step median is reported
// instead). Append latency and store size exist only on ingest-mixed,
// so they are reported there (and as ingest layer metrics), not here.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"step_p50_ms", "ms", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced
// replay. A layer a workload does not reach reports 0 (NOTES.md lists
// which apply where).
var perLayer = func() []spec {
	s := []spec{
		{"serve.overhead_ms", "ms", "lower"},
		{"serve.reply_mb", "MiB", "lower"},
		{"serve.reply_mb_total", "MiB", "lower"},
		{"session.dispatch_ms", "ms", "lower"},
		{"session.lineage_nodes", "count", "lower"},
		{"admission.wait_ms_mean", "ms", "lower"},
		{"admission.rejected", "count", "lower"},
		{"admission.timed_out", "count", "lower"},
		{"tenant.throttled", "count", "lower"},
		{"rescache.hit_ratio", "ratio", "higher"},
		{"rescache.hit_dispatch_ms", "ms", "lower"},
		{"rescache.evicted", "count", "lower"},
		{"rescache.bytes_mb", "MiB", "lower"},
	}
	for _, op := range gea.SessionOps() {
		s = append(s, spec{"op." + op + ".compute_ms", "ms", "lower"})
	}
	for _, op := range gea.SessionOps() {
		s = append(s, spec{"op." + op + ".alloc_mb", "MiB", "lower"})
	}
	for _, op := range gea.SessionOps() {
		s = append(s, spec{"exec.units." + op, "count", "lower"})
	}
	s = append(s,
		spec{"columnar.blocks_skipped_ratio", "ratio", "higher"},
		spec{"columnar.bytes_decoded_mb", "MiB", "lower"},
		spec{"ingest.apply_ms_mean", "ms", "lower"},
		spec{"ingest.commit_ms_mean", "ms", "lower"},
		spec{"ingest.append_p50_ms", "ms", "lower"},
		spec{"ingest.rss_mb_per_append", "MiB", "lower"},
		spec{"ingest.store_mb_per_append", "MiB", "lower"},
		spec{"ingest.store_mb", "MiB", "lower"},
	)
	for _, l := range layers {
		s = append(s, spec{"self." + l + "_ms", "ms", "lower"})
	}
	return append(s,
		spec{"trace.overhead_ratio", "ratio", "lower"},
		spec{"trace.selftime_err_max", "ratio", "lower"},
		spec{"trace.spans", "count", "lower"},
	)
}()

// layerMetrics reduces a traced replay to the per-layer metrics; the
// serve layer's come from the HTTP pass instead (runTraced).
func layerMetrics(r *replayed) metrics {
	m := metrics{}
	for _, s := range perLayer {
		m.set(s.Name, s.Unit, 0, 0)
	}
	reads := r.log.reads()
	var dispatch, hitDispatch []float64
	compute := map[string][]float64{}
	alloc := map[string][]float64{}
	var hits, scanned, skipped, decoded, pops int64
	for _, s := range reads {
		if s.err != nil {
			continue
		}
		dispatch = append(dispatch, ms(s.dispatch))
		if s.rep.Source != "computed" {
			hits++
			hitDispatch = append(hitDispatch, float64(s.rep.WallNS)/1e6)
		} else {
			compute[s.call.Op] = append(compute[s.call.Op], float64(s.rep.WallNS)/1e6)
			if st := s.rep.stats; st != nil {
				scanned += st.BlocksScanned
				skipped += st.BlocksSkipped
				decoded += st.BytesDecoded
				pops++
			}
		}
		if r.p.allocs {
			alloc[s.call.Op] = append(alloc[s.call.Op], s.allocMB)
		}
	}
	m.set("session.dispatch_ms", "ms", median(dispatch), len(dispatch))
	m.set("session.lineage_nodes", "count", float64(r.lineage), 0)
	m.set("admission.wait_ms_mean", "ms", histMeanMS(r.snap, "admission.wait_s"), int(histCount(r.snap, "admission.wait_s")))
	m.set("admission.rejected", "count", float64(counter(r.snap, "admission.rejected_overload")), 0)
	m.set("admission.timed_out", "count", float64(counter(r.snap, "admission.timed_out")), 0)
	m.set("tenant.throttled", "count", float64(counter(r.snap, "tenant.throttled")), 0)
	if len(dispatch) > 0 {
		m.set("rescache.hit_ratio", "ratio", float64(hits)/float64(len(dispatch)), len(dispatch))
	}
	m.set("rescache.hit_dispatch_ms", "ms", median(hitDispatch), len(hitDispatch))
	m.set("rescache.evicted", "count", float64(r.cache.Evicted), 0)
	m.set("rescache.bytes_mb", "MiB", float64(r.cache.Bytes)/mib, 0)
	for _, op := range gea.SessionOps() {
		m.set("op."+op+".compute_ms", "ms", median(compute[op]), len(compute[op]))
		m.set("op."+op+".alloc_mb", "MiB", median(alloc[op]), len(alloc[op]))
		m.set("exec.units."+op, "count", float64(r.units[op]), 0)
	}
	if scanned+skipped > 0 {
		m.set("columnar.blocks_skipped_ratio", "ratio", float64(skipped)/float64(scanned+skipped), int(pops))
		m.set("columnar.bytes_decoded_mb", "MiB", float64(decoded)/mib/float64(pops), int(pops))
	}
	if in := r.ingest; in != nil {
		m.set("ingest.apply_ms_mean", "ms", in["ingest.apply_ms_mean"].(float64), 0)
		m.set("ingest.commit_ms_mean", "ms", in["ingest.commit_ms_mean"].(float64), 0)
		ap := in["append_p50_ms"].(metric)
		m.set("ingest.append_p50_ms", "ms", ap.Value, ap.Samples)
		m.set("ingest.rss_mb_per_append", "MiB", in["rss_mb_per_append"].(float64), 0)
		m.set("ingest.store_mb_per_append", "MiB", in["store_mb_per_append"].(float64), 0)
		m.set("ingest.store_mb", "MiB", in["store_mb"].(metric).Value, 0)
	}
	st := r.p.tr.reduce()
	for _, l := range layers {
		m.set("self."+l+"_ms", "ms", st.meanMS[l], st.requests)
	}
	m.set("trace.selftime_err_max", "ratio", st.maxErr, st.requests)
	m.set("trace.spans", "count", float64(st.spans), 0)
	if st.maxErr > 0.05 {
		r.checks = append(r.checks, "a request's layer self times do not sum to its wall within 5%")
	}
	return m
}

// histCount is a histogram's observation count; 0 when absent.
func histCount(snap gea.ObsSnapshot, name string) int64 {
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// applies says whether metric name is measured on workload w; the
// others report 0.
func applies(w, name string) bool {
	switch {
	case strings.HasPrefix(name, "serve."), name == "self.decode_ms", name == "self.encode_ms",
		strings.HasPrefix(name, "admission."), strings.HasPrefix(name, "rescache."), name == "tenant.throttled":
		return w != opsCold
	case strings.HasSuffix(name, ".alloc_mb"):
		return w == opsCold
	case strings.HasPrefix(name, "ingest."), name == "self.ingest_ms", strings.HasPrefix(name, "columnar."):
		return w == ingestMixed
	}
	return true
}
