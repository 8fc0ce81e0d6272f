// Command perfbench is battsched's benchmark: one command that runs one of
// its workloads, measures its end-to-end metrics (or, traced, its per-layer
// split), checks every output for correctness and prints one JSON result as
// the last line of standard output. See README.md for the workloads, the
// metrics and how to run it.
//
//	bash perfbench/run.sh --workload table2_stochastic --seed 1 --seconds 36 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// parallel is the worker count of every workload: Parallel of the local
// experiment runs, and clients and total worker slots of the served ones. It
// is fixed, not read from the machine, so runs on different hosts compare.
const parallel = 2

// metricDef names one metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmark is the part of BENCHMARK.json the program reads: the workload
// names and the metrics each mode prints.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"` // printed by an untraced run
	PerLayer []metricDef `json:"per_layer"`  // printed by a traced run
}

// loadBenchmark reads BENCHMARK.json and checks that it lists workload.
func loadBenchmark(path, workload string) (*benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range b.Workloads {
		if w.Name == workload {
			return &b, nil
		}
	}
	return nil, fmt.Errorf("%s lists no workload %q", path, workload)
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch and trace output directory
	refs     string // directory of the committed reference renderings
	bench    string // path of BENCHMARK.json
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64 // metric name -> value
	notes             []string           // human-readable context lines
	problems          []string           // failed checks
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: table2_stochastic or served_fleet")
	fs.Int64Var(&o.seed, "seed", 1, "seed all inputs of the run derive from")
	fs.Float64Var(&o.seconds, "seconds", 36, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for temporary state and trace output")
	fs.StringVar(&o.refs, "refs", filepath.Join("perfbench", "testdata", "ref"), "directory of the reference renderings")
	fs.StringVar(&o.bench, "benchmark", "BENCHMARK.json", "path of BENCHMARK.json, which lists the workloads and metrics")
	probe := fs.Bool("setup-probe", false, "set the workload up, print ready, and tear it down at end of input (used to time setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if *probe {
		if err := setupProbe(o, os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup probe: %v\n", err)
			return 1
		}
		return 0
	}
	bench, err := loadBenchmark(o.bench, o.workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// A run that hangs must not outlive the harness's limit.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	out, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	report(stdout, o, bench, out)
	return 0
}

// runWorkload dispatches to the workload's measurement.
func runWorkload(ctx context.Context, o options) (*outcome, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	switch o.workload {
	case "table2_stochastic":
		return runLocal(ctx, o)
	case "served_fleet":
		return runServed(ctx, o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// tracePath is where a traced run writes its spans.
func tracePath(o options) string {
	return filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

// report prints the human-readable summary and then the JSON result line.
func report(w io.Writer, o options, bench *benchmark, out *outcome) {
	defs := bench.EndToEnd
	mode := "end-to-end"
	if o.trace {
		defs, mode = bench.PerLayer, "per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g (%s)\n", o.workload, o.seed, o.seconds, mode)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := out.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Fprintf(w, "  CHECK FAILED: %s is not a number (%v)\n", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g (%d of %d failed or incorrect)\n", "error_rate", errRate, out.failed, out.attempted)
	extra := make([]string, 0, len(out.values))
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-34s %14.6g\n", name, out.values[name])
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, _ := json.Marshal(res) // finite floats, strings and bools always marshal
	fmt.Fprintf(w, "%s\n", line)
}
