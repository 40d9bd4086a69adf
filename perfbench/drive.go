package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one attempted operation: a session run or an append.
type sample struct {
	client   int
	call     call // zero for appends
	isAppend bool
	lat      time.Duration
	// dispatch is the time around SessionManager.Run, in-process only.
	dispatch time.Duration
	err      error
	rep      reply // session runs: accounting, result hash, reply size
	// untimed is time spent inside the call on checks that are not part
	// of the operation (ops-cold's recompute of repeated keys).
	untimed time.Duration
	// allocMB is the run's allocation (MemStats delta), measured only
	// where one caller runs alone.
	allocMB float64
	// appended and gen are an append's reported libraries and the
	// generation it committed.
	appended []string
	gen      uint64
}

// runLog collects the samples of one measured run.
type runLog struct {
	mu      sync.Mutex
	samples []sample
	wall    time.Duration
	// rounds holds every completed round of every caller.
	rounds []round
	// steps holds the duration of every completed analysis step (a run
	// of stepCalls calls) of every caller, net of untimed checks.
	steps []time.Duration
	// lost counts scheduled operations never attempted because the
	// server exited; they count as failed.
	lost int
	// steal is the share of the machine's CPU time the hypervisor gave
	// to others during the run (/proc/stat); -1 when unreadable.
	steal float64
}

func (l *runLog) add(s sample) {
	l.mu.Lock()
	l.samples = append(l.samples, s)
	l.mu.Unlock()
}

// round is one completed round of one caller; dur is net of untimed
// checks.
type round struct {
	caller int
	calls  int
	dur    time.Duration
}

// plan is what one measured run drives: closed-loop callers, each
// working through its stream in whole rounds until the deadline, and
// optionally one writer sending a fixed list of appends back to back.
type plan struct {
	streams [][]call
	// round is how many calls make one round of a stream; a caller only
	// stops between rounds, so every run does whole rounds and the
	// operator mix does not depend on where the deadline falls. It is a
	// multiple of stepCalls.
	round   int
	seconds float64
	appends int
	// abort, when closed, stops every caller at once (the server died).
	abort <-chan struct{}
}

// drive runs p with doCall for each stream call and doAppend for each
// append, and returns the log. Both callbacks are called from the
// caller's own goroutine, one operation at a time per caller.
func drive(p plan, doCall func(client, i int, c call) sample, doAppend func(i int) sample) *runLog {
	log := &runLog{}
	steal0, total0 := cpuJiffies()
	start := time.Now()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	aborted := func() bool {
		select {
		case <-p.abort:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for ci, stream := range p.streams {
		wg.Add(1)
		go func(ci int, stream []call) {
			defer wg.Done()
			var roundStart, stepStart time.Time
			var untimed, stepUntimed time.Duration
			for i, c := range stream {
				// A round is a whole number of steps, so a round
				// boundary is also a step boundary.
				if i%stepCalls == 0 {
					now := time.Now()
					endsRound := i%p.round == 0
					if i > 0 {
						log.mu.Lock()
						log.steps = append(log.steps, now.Sub(stepStart)-stepUntimed)
						if endsRound {
							log.rounds = append(log.rounds, round{caller: ci, calls: p.round, dur: now.Sub(roundStart) - untimed})
						}
						log.mu.Unlock()
					}
					if endsRound {
						if now.After(deadline) {
							return
						}
						roundStart, untimed = now, 0
					}
					stepStart, stepUntimed = now, 0
				}
				if aborted() {
					return
				}
				s := doCall(ci, i, c)
				s.call = c
				untimed += s.untimed
				stepUntimed += s.untimed
				log.add(s)
			}
		}(ci, stream)
	}
	if p.appends > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < p.appends; i++ {
				if aborted() {
					log.mu.Lock()
					log.lost += p.appends - i
					log.mu.Unlock()
					return
				}
				s := doAppend(i)
				s.isAppend = true
				log.add(s)
			}
		}()
	}
	wg.Wait()
	log.wall = time.Since(start)
	log.steal = -1
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		log.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return log
}

// cpuJiffies reads the machine's stolen and total CPU time from the
// first line of /proc/stat; zeros when unreadable.
func cpuJiffies() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// throughput is the run's calls per second over its completed rounds:
// each caller's calls divided by the time its rounds took, summed over
// callers. Counting whole rounds only keeps every operator at its share
// of the round; the time past the deadline that callers spend finishing
// a round, waiting on one another, is not counted.
func (l *runLog) throughput() float64 {
	calls := map[int]int{}
	dur := map[int]time.Duration{}
	for _, r := range l.rounds {
		calls[r.caller] += r.calls
		dur[r.caller] += r.dur
	}
	total := 0.0
	for c, n := range calls {
		total += float64(n) / dur[c].Seconds()
	}
	return total
}

// reads returns the session-run samples; appends the append samples.
func (l *runLog) reads() []sample   { return l.filter(false) }
func (l *runLog) appends() []sample { return l.filter(true) }

func (l *runLog) filter(appends bool) []sample {
	var out []sample
	for _, s := range l.samples {
		if s.isAppend == appends {
			out = append(out, s)
		}
	}
	return out
}

// failures counts failed operations, including those lost to a server
// exit.
func (l *runLog) failures() int {
	n := l.lost
	for _, s := range l.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// checkReplies is the cross-reply correctness check: for each (op,
// canonical params, generation), every successful reply — computed,
// hit or shared, from any tenant — must carry the same result hash and
// the same units. Replies with hash 0 (in-process runs that compare
// values instead) only take part in the units check.
func checkReplies(samples []sample) []string {
	type group struct {
		hash  uint64
		units int64
		first string
	}
	seen := map[string]*group{}
	var bad []string
	for _, s := range samples {
		if s.err != nil || s.isAppend || s.rep.Partial {
			continue
		}
		k := fmt.Sprintf("%s @gen%d", s.call.Key, s.rep.Generation)
		g, ok := seen[k]
		if !ok {
			seen[k] = &group{hash: s.rep.hash, units: s.rep.Units, first: s.rep.Source}
			continue
		}
		if g.hash != s.rep.hash {
			bad = append(bad, fmt.Sprintf("%s: %s reply hash differs from the %s reply", k, s.rep.Source, g.first))
		}
		if g.units != s.rep.Units {
			bad = append(bad, fmt.Sprintf("%s: %s reply units %d != %s units %d", k, s.rep.Source, s.rep.Units, g.first, g.units))
		}
	}
	sort.Strings(bad)
	return bad
}
