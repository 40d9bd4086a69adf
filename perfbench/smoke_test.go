package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on the small
// corpus (28 libraries) for a moment each: the harness check a change to
// the benchmark or the program can run without a full benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gea and runs six short workloads")
	}
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(root, "gea")
	if out, err := exec.Command("go", "build", "-o", bin, "gea/cmd/gea").CombinedOutput(); err != nil {
		t.Fatalf("building gea: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1.5, trace: traced, smoke: true, root: root, geaBin: bin}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%v",
					w, traced, out.correct, out.attempted, out.failed, out.checks)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, o, out); err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var result struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(result.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(result.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := result.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w, traced, s.Name, s.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, s.Name, m.Value)
				}
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, ".bench_build"))
	if err != nil || len(entries) != 0 {
		t.Errorf("run scratch left behind: %v %v", entries, err)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics
// this command reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, recordWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, recordWorkloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the command's:\n%s", specsJSON(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's:\n%s", specsJSON(perLayer))
	}
}

func specsJSON(s []spec) string {
	var lines []string
	for _, x := range s {
		b, _ := json.Marshal(x)
		lines = append(lines, "    "+string(b))
	}
	return strings.Join(lines, ",\n")
}
