package main

import (
	"sort"
	"time"
)

// metric is one reported figure. Samples is the count behind a
// percentile or mean, zero for single readings.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, Samples: n}
}

// quantile is the q-th quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// latencyMetrics sets step_p50_ms, the median duration of the run's
// completed analysis steps, in m, and returns for the report the
// steps' 90th percentile and the per-call latency median and 90th
// percentile over the successful calls, each with its sample count.
//
// The result line carries the step median because a per-call
// percentile of a mix of seven operators whose costs differ by up to a
// hundredfold falls between two operators' clusters: a small shift in
// the mix or the machine moves it from one to the other. A step holds one call of
// each operator, so its duration varies far less, and a median of steps
// discounts short stalls of the machine.
func latencyMetrics(m metrics, calls []sample, steps []time.Duration) metrics {
	var lats, st []float64
	for _, s := range calls {
		if s.err == nil {
			lats = append(lats, ms(s.lat))
		}
	}
	for _, d := range steps {
		st = append(st, ms(d))
	}
	m.set("step_p50_ms", "ms", median(st), len(st))
	r := metrics{}
	r.set("step_p90_ms", "ms", quantile(st, 0.9), len(st))
	r.set("latency_p50_ms", "ms", quantile(lats, 0.5), len(lats))
	r.set("latency_p90_ms", "ms", quantile(lats, 0.9), len(lats))
	return r
}
