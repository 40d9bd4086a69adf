// Command perfbench is GEA's benchmark of record. One invocation runs
// one workload for a fixed time from a seed and prints a report line
// and, last, a result line:
//
//	perfbench -workload ops-cold|serve-sessions|ingest-mixed -seed N
//	          -seconds S -trace 0|1 [-smoke] -root DIR -gea BIN
//
// With -trace 0 the workload runs untraced and reports the end-to-end
// metrics; with -trace 1 its request stream is replayed in-process,
// untraced and then traced, and the per-layer metrics are reported.
// run.sh builds gea and this command from the checkout and runs it;
// NOTES.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, o, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 replays the workload traced and reports per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "short harness check on the small corpus (28 libraries)")
	fs.StringVar(&o.root, "root", ".", "checkout root; run scratch goes under its .bench_build")
	fs.StringVar(&o.geaBin, "gea", "", "gea binary built from the checkout")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("-trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.geaBin == "" && o.workload != opsCold {
		return o, errors.New("-gea is required for the served workloads")
	}
	return o, nil
}

// run executes one workload in a fresh scratch directory.
func run(o options) (*outcome, error) {
	work, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work
	info, err := describeCorpus(corpusConfig(o.seed, o.smoke))
	if err != nil {
		return nil, err
	}
	var out *outcome
	switch {
	case o.trace:
		out, err = runTraced(o, info)
	case o.workload == opsCold:
		out, err = runOpsCold(o, info)
	default:
		out, err = runServed(o, info, o.setups())
	}
	if err != nil {
		return nil, err
	}
	out.report["environment"] = environment(o, info)
	return out, nil
}

// printResult writes the report line (every figure, with sample counts,
// checks and the environment) and then the result line: correct,
// attempted, failed and the metrics of the mode, each with value and
// unit.
func printResult(w io.Writer, o options, out *outcome) error {
	if out.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", o.workload)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := map[string]valueUnit{}
	var na []string
	for _, s := range specs {
		m, ok := out.metrics[s.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, s.Name)
		}
		final[s.Name] = valueUnit{m.Value, s.Unit}
		if !applies(o.workload, s.Name) {
			na = append(na, s.Name)
		}
	}
	out.report["workload"] = o.workload
	out.report["metrics"] = out.metrics
	out.report["checks_failed"] = out.checks
	if len(na) > 0 {
		out.report["not_applicable_reported_as_0"] = na
	}
	report, err := json.Marshal(out.report)
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{out.correct, out.attempted, out.failed, final})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", report, result)
	return err
}

// environment is the run's environment block.
func environment(o options, info *corpusInfo) map[string]any {
	env := map[string]any{
		"commit":       commitOf(o.root),
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"mem_total_mb": procField("/proc/meminfo", "MemTotal") / 1024,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"smoke":        o.smoke,
		"corpus": fmt.Sprintf("%d libraries x %d cleaned tags in %d tissues",
			info.libraries, len(info.tags), len(info.tissues)),
		"callers": o.callers(),
	}
	if o.workload == ingestMixed {
		n, size := o.appendPlan()
		env["writer"] = fmt.Sprintf("1 writer, %d appends of %d libraries", n, size)
	}
	switch {
	case o.trace:
		env["mode"] = "in-process replay, untraced then traced, each for a third of the seconds (half on ops-cold); served workloads also a third over HTTP for the serve layer"
	case o.workload == opsCold:
		env["mode"] = "in-process, SessionManager.Run on a System without a result cache"
	default:
		env["mode"] = "HTTP against gea serve"
		env["server_flags"] = strings.Join(serverFlags("<corpus>", o.workload == ingestMixed), " ")
	}
	return env
}

// commitOf names the code under test: the git commit when the checkout
// is itself a repository, otherwise a digest of its Go sources. Git is
// not asked otherwise, so nothing above the checkout is read.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if fi.IsDir() && strings.HasPrefix(fi.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if n := fi.Name(); fi.Mode().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procField reads a "Name: value kB" line of a /proc file; 0 when
// absent.
func procField(path, field string) float64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var v float64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &v)
			return v
		}
	}
	return 0
}
