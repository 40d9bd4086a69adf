package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"gea"
)

// corpusInfo is what the request streams are drawn over: the tissue
// names and the cleaned tag universe of the generated corpus.
type corpusInfo struct {
	corpus    *gea.Corpus
	tissues   []string
	pairs     [][2]string
	tags      []gea.TagID // cleaned, sorted
	libraries int
}

// corpusConfig is the generator configuration of a run: the full
// thesis-sized corpus (100 libraries, 9 tissues) or, in smoke mode, the
// small one.
func corpusConfig(seed int64, smoke bool) gea.GenConfig {
	cfg := gea.DefaultConfig()
	if smoke {
		cfg = gea.SmallConfig()
	}
	cfg.Seed = seed
	return cfg
}

// describeCorpus generates the corpus for seed and derives the tissue
// list and the cleaned tag universe the session operators run over.
func describeCorpus(cfg gea.GenConfig) (*corpusInfo, error) {
	res, err := gea.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	cleaned, _, err := gea.Clean(res.Corpus, gea.DefaultCleanOptions())
	if err != nil {
		return nil, fmt.Errorf("cleaning corpus: %w", err)
	}
	info := &corpusInfo{corpus: res.Corpus, libraries: len(res.Corpus.Libraries)}
	seen := map[string]bool{}
	for _, l := range res.Corpus.Libraries {
		if !seen[l.Meta.Tissue] {
			seen[l.Meta.Tissue] = true
			info.tissues = append(info.tissues, l.Meta.Tissue)
		}
	}
	sort.Strings(info.tissues)
	for i := range info.tissues {
		for j := i + 1; j < len(info.tissues); j++ {
			info.pairs = append(info.pairs, [2]string{info.tissues[i], info.tissues[j]})
		}
	}
	info.tags = cleaned.UnionTags()
	sort.Slice(info.tags, func(i, j int) bool { return info.tags[i] < info.tags[j] })
	return info, nil
}

// call is one operator invocation: the session request plus its
// canonical key (op and sorted params), which names it in checks.
type call struct {
	Op     string
	Params map[string]string
	Key    string
}

func newCall(op string, kv ...string) call {
	c := call{Op: op, Params: map[string]string{}}
	for i := 0; i+1 < len(kv); i += 2 {
		c.Params[kv[i]] = kv[i+1]
	}
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(op)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, c.Params[k])
	}
	c.Key = b.String()
	return c
}

func (c call) request() gea.SessionRequest {
	return gea.SessionRequest{Op: c.Op, Params: c.Params}
}

// windowFractions are ops-cold's rangesearch tag windows, as shares of
// the cleaned tag range, from 1% up to the full range. Each cycle of
// five rangesearch calls uses every fraction once, in a seed-shuffled
// order, so one rangesearch in five searches the full range on every
// seed. The set is an assumption, not observed traffic. It has no
// window between a tenth and the full range: a search's cost grows with
// the square of its window (sortTags), so a 20% or 50% window costs two
// to ten times the heaviest other calls, and with one such call in 35
// it would sit where the report's per-call 90th percentile falls and
// move it from run to run. The full-range calls lie beyond that
// percentile whatever the set; every round of five steps holds one, so
// they show in throughput_ops_s.
var windowFractions = []float64{0.01, 0.02, 0.05, 0.1, 1.0}

// servingWindows are the serving workloads' rangesearch windows. They
// stop at a fifth of the tag range: a full-range search computes for
// about two seconds (sortTags is quadratic), and on the serving
// workloads, which exist to measure the serving path, a handful of such
// misses would decide every figure. ops-cold measures the full range.
var servingWindows = []float64{0.01, 0.02, 0.05, 0.1, 0.2}

// rangeCall builds a rangesearch over tissues a, b with a window of
// frac of the tag range starting at a drawn offset. The full range is
// expressed as firsttag=0, lasttag=0, which the operator resolves to the
// whole cleaned universe.
func rangeCall(info *corpusInfo, r *rand.Rand, a, b string, frac float64, lo, hi string) call {
	first, last := "0", "0"
	if frac < 1 {
		n := len(info.tags)
		w := int(frac * float64(n))
		if w < 1 {
			w = 1
		}
		start := r.Intn(n - w + 1)
		first = strconv.FormatUint(uint64(info.tags[start]), 10)
		last = strconv.FormatUint(uint64(info.tags[start+w-1]), 10)
	}
	return newCall("rangesearch", "a", a, "b", b, "lo", lo, "hi", hi,
		"firsttag", first, "lasttag", last)
}

// coldStream draws the ops-cold call sequence: rounds of all seven
// session operators in a seed-shuffled order, every parameter drawn
// from the seed. The per-round op mix is fixed so the seed moves only
// which tissues, thresholds and windows are used, never how much of
// each operator a run does.
func coldStream(info *corpusInfo, seed int64, n int) []call {
	r := rand.New(rand.NewSource(seed))
	tissue := func() string { return info.tissues[r.Intn(len(info.tissues))] }
	pair := func() [2]string { return info.pairs[r.Intn(len(info.pairs))] }
	var out []call
	var windows []float64
	for len(out) < n {
		if len(windows) == 0 {
			windows = append(windows, windowFractions...)
			r.Shuffle(len(windows), func(i, j int) { windows[i], windows[j] = windows[j], windows[i] })
		}
		frac := windows[0]
		windows = windows[1:]
		p, q, s := pair(), pair(), pair()
		lo := 1 + r.Float64()*20
		round := []call{
			newCall("aggregate", "tissue", tissue()),
			newCall("select", "tissue", tissue(), "minmean", strconv.FormatFloat(1+r.Float64()*39, 'f', 2, 64)),
			newCall("diff", "a", p[0], "b", p[1]),
			newCall("topgap", "a", q[0], "b", q[1], "x", strconv.Itoa([]int{5, 10, 20, 50}[r.Intn(4)])),
			newCall("populate", "tissue", tissue()),
			newCall("mine", "tissue", tissue()),
			rangeCall(info, r, s[0], s[1], frac,
				strconv.FormatFloat(lo, 'f', 2, 64), strconv.FormatFloat(lo+5+r.Float64()*45, 'f', 2, 64)),
		}
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out[:n]
}

// keySpace is the serving workloads' request catalog: for each operator
// its distinct keys in popularity order. The order is the catalog's own
// (tissues alphabetically, then parameters), the same on every seed, so
// the seed moves which requests arrive when but not how popular, and so
// how large, each key is.
type keySpace map[string][]call

// servingKeys builds the serve-sessions key space. Its cache-estimated
// result bytes (about 3.7 MB per whole-tag SUMY, 2.8 MB per GAP) sum to
// several times the 64 MiB default cache bound, while the hottest few
// keys of each operator fit.
func servingKeys(info *corpusInfo, seed int64) keySpace {
	r := rand.New(rand.NewSource(seed))
	ks := keySpace{}
	for _, t := range append([]string{""}, info.tissues...) {
		for _, m := range []string{"false", "true"} {
			ks["aggregate"] = append(ks["aggregate"], newCall("aggregate", "tissue", t, "median", m))
		}
	}
	for _, t := range info.tissues {
		for _, m := range []string{"2", "5", "10", "20"} {
			ks["select"] = append(ks["select"], newCall("select", "tissue", t, "minmean", m))
		}
		ks["populate"] = append(ks["populate"], newCall("populate", "tissue", t))
		ks["mine"] = append(ks["mine"], newCall("mine", "tissue", t))
	}
	for _, p := range info.pairs {
		ks["diff"] = append(ks["diff"], newCall("diff", "a", p[0], "b", p[1]))
		ks["topgap"] = append(ks["topgap"], newCall("topgap", "a", p[0], "b", p[1], "x", "10"))
	}
	for i := 0; i < 4; i++ {
		p := info.pairs[r.Intn(len(info.pairs))]
		for _, frac := range servingWindows {
			ks["rangesearch"] = append(ks["rangesearch"], rangeCall(info, r, p[0], p[1], frac, "5", "40"))
		}
	}
	return ks
}

// analysisStep is one round of a serving client: one step of the
// thesis's multi-step analysis, mine → populate → aggregate → diff →
// top-gap, followed by the catalog's two other operators, select and
// rangesearch, so that every session operator is asked for once per
// step.
var analysisStep = []string{"mine", "populate", "aggregate", "diff", "topgap", "select", "rangesearch"}

// stepCalls is the length of an analysis step on every workload: one
// call of each session operator (ops-cold's rounds hold the same seven,
// shuffled).
var stepCalls = len(analysisStep)

// zipfExponent is the skew of key popularity within an operator. It is
// an assumption, not a figure observed in GEA's traffic.
const zipfExponent = 1.1

// servingStream draws n requests for one client: analysis steps whose
// keys follow a Zipf skew over each operator's popularity order. Every
// client starts with a step's first operator, so the seed never moves
// how the clients' heavy requests line up. Ranks come from a golden-ratio
// sequence through the Zipf distribution, starting at a seed-drawn
// phase, rather than from independent draws: every stretch of the
// stream then asks for each key close to its Zipf share, so runs of a
// few rounds differ by which keys arrive when, not by how often the
// large ones arrive.
func servingStream(ks keySpace, seed int64, n int) []call {
	const golden = 0.6180339887498949
	r := rand.New(rand.NewSource(seed))
	cdf := map[string][]float64{}
	phase := map[string]float64{}
	for _, op := range analysisStep {
		cdf[op] = zipfCDF(len(ks[op]), zipfExponent)
		phase[op] = r.Float64()
	}
	var out []call
	for i := 0; len(out) < n; i++ {
		op := analysisStep[i%len(analysisStep)]
		phase[op] = math.Mod(phase[op]+golden, 1)
		rank := sort.SearchFloat64s(cdf[op], phase[op])
		out = append(out, ks[op][min(rank, len(ks[op])-1)])
	}
	return out
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 with
// P(rank i) proportional to 1/(i+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// ingestBatches draws the ingest-mixed writer's append batches: n
// batches of size new libraries generated from seed+1, renamed under a
// prefix so they never collide with the seeded corpus, and taken at a
// stride so the batches span the tissues.
func ingestBatches(cfg gea.GenConfig, n, size int) ([]gea.IngestBatch, []string, error) {
	cfg.Seed++
	res, err := gea.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generating append libraries: %w", err)
	}
	libs := res.Corpus.Libraries
	stride := len(libs) / (n * size)
	if stride < 1 {
		return nil, nil, fmt.Errorf("corpus of %d libraries cannot supply %d x %d appends", len(libs), n, size)
	}
	var batches []gea.IngestBatch
	var names []string
	for b := 0; b < n; b++ {
		var picked []*gea.Library
		for i := 0; i < size; i++ {
			picked = append(picked, libs[(b*size+i)*stride])
		}
		batch := gea.IngestBatchFromLibraries(picked)
		for j := range batch.Libraries {
			batch.Libraries[j].Name = "bench-" + batch.Libraries[j].Name
			names = append(names, batch.Libraries[j].Name)
		}
		batches = append(batches, batch)
	}
	return batches, names, nil
}
