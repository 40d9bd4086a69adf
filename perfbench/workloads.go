package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"gea"
)

// Workload names.
const (
	opsCold       = "ops-cold"
	serveSessions = "serve-sessions"
	ingestMixed   = "ingest-mixed"
)

var workloadNames = []string{opsCold, serveSessions, ingestMixed}

// recordWorkloads are the workloads BENCHMARK.json lists. serve-sessions
// stays runnable by hand but is not among them: every layer it reaches,
// ingest-mixed reaches too, and the time a benchmark of record may take
// allows two workloads at the run length their steadiness needs
// (NOTES.md, "Stability").
var recordWorkloads = []string{opsCold, ingestMixed}

// appendCount is how many batches the ingest-mixed writer sends, each of
// appendSize libraries. NOTES.md records how the count was chosen.
const (
	appendCount = 4
	appendSize  = 2
)

// options are one benchmark invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	root     string // checkout root
	geaBin   string // gea binary built from the checkout
	work     string // per-run scratch directory inside the checkout
}

// setups is how many times a run sets the program up to time setup_s;
// the run reports their median.
func (o options) setups() int {
	if o.smoke {
		return 1
	}
	return 5
}

func (o options) appendPlan() (n, size int) {
	if o.smoke {
		return 2, 1
	}
	return appendCount, appendSize
}

// callers is the number of closed-loop session callers: one on
// ops-cold, two tenants on serve-sessions, one reader beside the writer
// on ingest-mixed — never more than the machine's two cores.
func (o options) callers() int {
	if o.workload == serveSessions {
		return 2
	}
	return 1
}

// outcome is one workload run's result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	// report holds everything measured beyond the result metrics.
	report map[string]any
	checks []string
	// serve holds the serve.* layer metrics of a run over HTTP.
	serve metrics
}

// streams draws the callers' request streams and the size of one round.
func (o options) streams(info *corpusInfo) ([][]call, int) {
	const rounds = 2000
	if o.workload == opsCold {
		// One round is a cycle of five seven-operator rounds, so every
		// rangesearch window fraction runs equally often.
		round := 7 * len(windowFractions)
		return [][]call{coldStream(info, o.seed, round*rounds)}, round
	}
	ks := servingKeys(info, o.seed)
	round := len(analysisStep)
	var out [][]call
	for ci := 0; ci < o.callers(); ci++ {
		out = append(out, servingStream(ks, o.seed*100+int64(ci), round*rounds))
	}
	return out, round
}

// appendBodies encodes the ingest-mixed writer's batches.
func (o options) appendBodies() ([][]byte, []string, error) {
	if o.workload != ingestMixed {
		return nil, nil, nil
	}
	n, size := o.appendPlan()
	batches, names, err := ingestBatches(corpusConfig(o.seed, o.smoke), n, size)
	if err != nil {
		return nil, nil, err
	}
	var bodies [][]byte
	for _, b := range batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, names, nil
}

// serverFlags are gea serve's flags on a serving workload: -debug (and
// -ingest on ingest-mixed) over the saved corpus, every other flag at
// its default.
func serverFlags(dir string, ingest bool) []string {
	flags := []string{"-in", dir, "-debug"}
	if ingest {
		flags = append(flags, "-ingest")
	}
	return flags
}

// runOpsCold times NewSystem, then drives the cold operator stream
// through SessionManager.Run on a System without a result cache.
func runOpsCold(o options, info *corpusInfo) (*outcome, error) {
	var setups []float64
	var sys *gea.System
	for i := 0; i < o.setups(); i++ {
		sys = nil // the previous set-up's System goes before the next is timed
		runtime.GC()
		start := time.Now()
		s, err := gea.NewSystem(info.corpus, coldOptions())
		if err != nil {
			return nil, fmt.Errorf("NewSystem: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		sys = s
	}
	p, err := newInproc(sys, nil, 1, false)
	if err != nil {
		return nil, err
	}
	streams, round := o.streams(info)
	// Hand the earlier set-ups' heaps back before the peak is reset.
	runtime.GC()
	debug.FreeOSMemory()
	reset := resetPeakRSS("self")
	log := drive(plan{streams: streams, round: round, seconds: o.seconds},
		func(ci, _ int, c call) sample { return p.run(ci, c) }, nil)

	m := metrics{}
	m.set("setup_s", "s", median(setups), len(setups))
	lat := latencyMetrics(m, log.samples, log.steps)
	m.set("throughput_ops_s", "ops/s", log.throughput(), len(log.rounds))
	m.set("peak_rss_mb", "MiB", procMemMiB("self", "VmHWM"), 1)

	out := finish(log, m, append(checkReplies(log.samples), p.bad...))
	out.report["latency"] = lat
	out.report["peak_rss_reset"] = reset
	out.report["setup_runs_s"] = setups
	full := 0
	for _, s := range log.samples {
		if s.call.Op == "rangesearch" && s.call.Params["firsttag"] == "0" {
			full++
		}
	}
	out.report["rangesearch_full_range"] = fmt.Sprintf("%d of %d rangesearch calls", full, opCount(log.samples, "rangesearch"))
	return out, nil
}

// runServed starts gea serve (starts times, timing each to its first
// healthy /healthz), then drives the serving stream over HTTP, and on
// ingest-mixed the writer's appends beside it.
func runServed(o options, info *corpusInfo, starts int) (*outcome, error) {
	ingest := o.workload == ingestMixed
	dir := filepath.Join(o.work, "corpus")
	if err := gea.SaveCorpus(dir, info.corpus); err != nil {
		return nil, fmt.Errorf("saving corpus: %w", err)
	}
	bodies, names, err := o.appendBodies()
	if err != nil {
		return nil, err
	}
	flags := serverFlags(dir, ingest)
	var setups []float64
	var srv *server
	for i := 0; i < starts; i++ {
		s, ready, err := startServer(o.geaBin, filepath.Join(o.work, fmt.Sprintf("serve-%d.log", i)), flags)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
		if i == starts-1 {
			srv = s
		} else if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up server %d: %w", i, err)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	cl := newClient(srv.base)
	ctx := context.Background()
	var sids []string
	for ci := 0; ci < o.callers(); ci++ {
		id, err := cl.createSession(ctx, fmt.Sprintf("client-%d", ci))
		if err != nil {
			return nil, fmt.Errorf("creating session: %w", err)
		}
		sids = append(sids, id)
	}
	streams, round := o.streams(info)
	var rss0, rss1, store0, store1 float64
	if ingest {
		rss0, store0 = srv.memMiB("VmRSS"), dirMiB(dir)
	}
	doCall := func(ci, _ int, c call) sample {
		body, err := json.Marshal(c.request())
		if err != nil {
			return sample{err: err}
		}
		start := time.Now()
		var rep reply
		err = cl.post(ctx, "/session/"+sids[ci]+"/run", body, func(r io.Reader) error {
			var err error
			rep, err = readReply(r, c.Op)
			return err
		})
		return sample{lat: time.Since(start), rep: rep, err: err}
	}
	doAppend := func(i int) sample {
		start := time.Now()
		var ir ingestReply
		err := cl.post(ctx, "/ingest", bodies[i], func(r io.Reader) error {
			return json.NewDecoder(r).Decode(&ir)
		})
		s := sample{lat: time.Since(start), err: err, appended: ir.Appended, gen: ir.Generation}
		if i == len(bodies)-1 {
			rss1, store1 = srv.memMiB("VmRSS"), dirMiB(dir)
		}
		return s
	}
	reset := resetPeakRSS(strconv.Itoa(srv.cmd.Process.Pid))
	log := drive(plan{streams: streams, round: round, seconds: o.seconds, appends: len(bodies), abort: srv.exited},
		doCall, doAppend)
	peak := srv.memMiB("VmHWM")

	var checks []string
	report := map[string]any{}
	exited := srv.dead()
	if exited {
		// The server exited under the run (e.g. out of memory): the run
		// ends, and the reads it would still have sent count as failed.
		reads := len(log.reads())
		if left := o.seconds - log.wall.Seconds(); left > 0 && reads > 0 {
			log.lost += int(math.Ceil(float64(reads) * left / log.wall.Seconds()))
		}
		checks = append(checks, fmt.Sprintf("gea serve exited during the run: %v", srv.exitErr))
		report["server_exit"] = fmt.Sprint(srv.exitErr)
	}
	m := metrics{}
	m.set("setup_s", "s", median(setups), len(setups))
	reads := log.reads()
	report["latency"] = latencyMetrics(m, reads, log.steps)
	m.set("throughput_ops_s", "ops/s", log.throughput(), len(log.rounds))
	m.set("peak_rss_mb", "MiB", peak, 1)
	report["peak_rss_reset"] = reset
	report["setup_runs_s"] = setups
	checks = append(checks, checkReplies(log.samples)...)

	var hz healthz
	var snap gea.ObsSnapshot
	lineage := 0
	if !exited {
		if err := cl.get("/healthz", &hz); err != nil {
			checks = append(checks, "reading /healthz: "+err.Error())
		}
		if err := cl.get("/debug/metrics", &snap); err != nil {
			checks = append(checks, "reading /debug/metrics: "+err.Error())
		}
		for _, id := range sids {
			var nodes []gea.SessionLineageNode
			if err := cl.get("/session/"+id+"/lineage", &nodes); err != nil {
				checks = append(checks, "reading lineage: "+err.Error())
			}
			lineage += len(nodes)
		}
	}
	storeMB := dirMiB(dir)
	stopped = true
	if err := srv.stop(); err != nil && !exited {
		checks = append(checks, "gea serve did not drain cleanly: "+err.Error())
	}
	if ingest && !exited {
		checks = append(checks, checkIngest(log.appends(), names, hz.Generation)...)
	}

	out := finish(log, m, checks)
	for k, v := range report {
		out.report[k] = v
	}
	out.report["server_flags"] = flags
	out.serve = serveLayer(reads)
	out.report["served"] = servedFigures(out.serve, reads, snap, hz.Cache, lineage)
	if ingest {
		out.report["ingest"] = ingestFigures(log.appends(), snap, rss0, rss1, store0, store1, storeMB)
	}
	return out, nil
}

// checkIngest verifies the end of an ingest-mixed run: the served
// generation is one past the base per committed append, and every
// submitted library was reported appended.
func checkIngest(appends []sample, submitted []string, generation uint64) []string {
	var bad []string
	committed := 0
	got := map[string]bool{}
	for _, s := range appends {
		if s.err == nil && len(s.appended) > 0 {
			committed++
		}
		for _, n := range s.appended {
			got[n] = true
		}
	}
	if want := uint64(1 + committed); generation != want {
		bad = append(bad, fmt.Sprintf("served generation %d after %d committed appends, want %d", generation, committed, want))
	}
	for _, n := range submitted {
		if !got[n] {
			bad = append(bad, fmt.Sprintf("library %s was submitted but never reported appended", n))
		}
	}
	return bad
}

// finish assembles an outcome: attempted and failed counts (failures
// include lost operations), the error ratio, and the checks.
func finish(log *runLog, m metrics, checks []string) *outcome {
	attempted := len(log.samples) + log.lost
	failed := log.failures()
	out := &outcome{
		correct:   len(checks) == 0,
		attempted: attempted,
		failed:    failed,
		metrics:   m,
		checks:    checks,
		report:    map[string]any{},
	}
	out.report["error_ratio"] = metric{Value: float64(failed) / float64(max(attempted, 1)), Unit: "fraction", Samples: attempted}
	var errs []string
	for _, s := range log.samples {
		if s.err != nil && len(errs) < 10 {
			errs = append(errs, s.err.Error())
		}
	}
	if len(errs) > 0 {
		out.report["first_errors"] = errs
	}
	out.report["per_op"] = perOp(log.reads())
	out.report["wall_s"] = log.wall.Seconds()
	out.report["cpu_steal_share"] = log.steal
	return out
}

// serveLayer reduces the replies of a run over HTTP to the cmd/gea
// serve layer metrics: the median of client latency minus the reply's
// server-side dispatch wall (wall_ns), which leaves HTTP decode, reply
// encoding and transfer, and the median and total reply size.
func serveLayer(reads []sample) metrics {
	var replyMB, overhead []float64
	total := 0.0
	for _, s := range reads {
		if s.err != nil {
			continue
		}
		replyMB = append(replyMB, float64(s.rep.bytes)/mib)
		overhead = append(overhead, ms(s.lat)-float64(s.rep.WallNS)/1e6)
		total += float64(s.rep.bytes) / mib
	}
	m := metrics{}
	m.set("serve.overhead_ms", "ms", median(overhead), len(overhead))
	m.set("serve.reply_mb", "MiB", median(replyMB), len(replyMB))
	m.set("serve.reply_mb_total", "MiB", total, len(replyMB))
	return m
}

// servedFigures summarises what the replies and the server's counters
// say about a served run, for the report.
func servedFigures(serve metrics, reads []sample, snap gea.ObsSnapshot, cache gea.ResultCacheStats, lineage int) map[string]any {
	src := map[string]int{}
	for _, s := range reads {
		if s.err == nil {
			src[s.rep.Source]++
		}
	}
	return map[string]any{
		"sources":                 src,
		"serve.overhead_ms":       serve["serve.overhead_ms"],
		"serve.reply_mb":          serve["serve.reply_mb"],
		"serve.reply_mb_total":    serve["serve.reply_mb_total"],
		"admission.wait_ms_mean":  histMeanMS(snap, "admission.wait_s"),
		"rescache.evicted":        cache.Evicted,
		"rescache.bytes_mb":       float64(cache.Bytes) / mib,
		"session.lineage_nodes":   lineage,
		"admission.rejected":      counter(snap, "admission.rejected_overload"),
		"admission.timed_out":     counter(snap, "admission.timed_out"),
		"tenant.throttled":        counter(snap, "tenant.throttled"),
		"columnar.blocks_skipped": counter(snap, "columnar.blocks_skipped"),
	}
}

// ingestFigures summarises the writer's side of ingest-mixed.
func ingestFigures(appends []sample, snap gea.ObsSnapshot, rss0, rss1, store0, store1, storeMB float64) map[string]any {
	var lats []float64
	for _, s := range appends {
		if s.err == nil {
			lats = append(lats, ms(s.lat))
		}
	}
	n := float64(max(len(appends), 1))
	return map[string]any{
		"append_p50_ms":         metric{Value: median(lats), Unit: "ms", Samples: len(lats)},
		"store_mb":              metric{Value: storeMB, Unit: "MiB"},
		"ingest.apply_ms_mean":  histMeanMS(snap, "ingest.apply_s"),
		"ingest.commit_ms_mean": histMeanMS(snap, "ingest.commit_s"),
		"rss_mb_per_append":     (rss1 - rss0) / n,
		"store_mb_per_append":   (store1 - store0) / n,
	}
}

// perOp summarises the session runs of each operator for the report:
// count, computed count, latency median and total, and reply size.
func perOp(reads []sample) map[string]any {
	lats := map[string][]float64{}
	computed := map[string]int{}
	replyMB, totalS := map[string]float64{}, map[string]float64{}
	for _, s := range reads {
		if s.err != nil {
			continue
		}
		lats[s.call.Op] = append(lats[s.call.Op], ms(s.lat))
		totalS[s.call.Op] += s.lat.Seconds()
		if s.rep.Source == "computed" {
			computed[s.call.Op]++
		}
		replyMB[s.call.Op] += float64(s.rep.bytes) / mib
	}
	out := map[string]any{}
	for op, l := range lats {
		out[op] = map[string]float64{
			"n": float64(len(l)), "computed": float64(computed[op]),
			"p50_ms": median(l), "total_s": totalS[op],
			"reply_mb_mean": replyMB[op] / float64(len(l)),
		}
	}
	return out
}

func opCount(samples []sample, op string) int {
	n := 0
	for _, s := range samples {
		if s.call.Op == op {
			n++
		}
	}
	return n
}

// counter reads a counter from a metrics snapshot; 0 when absent.
func counter(snap gea.ObsSnapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// histMeanMS is a seconds histogram's mean in ms; 0 when empty.
func histMeanMS(snap gea.ObsSnapshot, name string) float64 {
	for _, h := range snap.Histograms {
		if h.Name == name && h.Count > 0 {
			return h.Sum / float64(h.Count) * 1e3
		}
	}
	return 0
}

// dirMiB is the on-disk size of the regular files under dir.
func dirMiB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return float64(total) / mib
}
