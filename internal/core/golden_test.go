package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the file
// when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenResult renders every numeric field of a Result with round-trip float
// precision, so any behavioural change of the engine shows up byte-for-byte.
func goldenResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon=%.17g busy=%.17g idle=%.17g\n", r.Horizon, r.BusyTime, r.IdleTime)
	fmt.Fprintf(&b, "energyBattery=%.17g energyProcessor=%.17g\n", r.EnergyBattery, r.EnergyProcessor)
	fmt.Fprintf(&b, "cycles=%.17g avgFreq=%.17g\n", r.ExecutedCycles, r.AverageFrequency)
	fmt.Fprintf(&b, "jobs=%d/%d nodes=%d misses=%d preempt=%d outOfOrder=%d feasRej=%d decisions=%d\n",
		r.JobsReleased, r.JobsCompleted, r.NodesCompleted, r.DeadlineMisses,
		r.Preemptions, r.OutOfOrderExecutions, r.FeasibilityRejections, r.SchedulingDecisions)
	if r.Profile != nil {
		fmt.Fprintf(&b, "profile: segments=%d duration=%.17g charge=%.17g peak=%.17g\n",
			len(r.Profile.Segments), r.Profile.Duration(), r.Profile.Charge(), r.Profile.PeakCurrent())
	}
	if r.Trace != nil {
		fmt.Fprintf(&b, "trace: slices=%d busy=%.17g idle=%.17g cycles=%.17g charge=%.17g\n",
			len(r.Trace.Slices), r.Trace.BusyTime(), r.Trace.IdleTime(), r.Trace.ExecutedCycles(), r.Trace.Charge())
	}
	for _, g := range r.PerGraph {
		fmt.Fprintf(&b, "graph %d %s: jobs=%d misses=%d maxResp=%.17g avgResp=%.17g avgLaxity=%.17g\n",
			g.GraphIndex, g.Name, g.Jobs, g.Misses, g.MaxResponse, g.AvgResponse, g.AvgLaxity)
	}
	return b.String()
}

// TestGoldenEngineSchemes pins the exact behaviour of the engine across every
// paper scheme and every frequency mode at a fixed seed: the refactored
// engine must produce byte-identical results.
func TestGoldenEngineSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 4, 0.7, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}

	schemes := []struct {
		name   string
		alg    func() dvs.Algorithm
		prio   func() priority.Function
		policy ReadyPolicy
	}{
		{"edf", func() dvs.Algorithm { return dvs.NewNoDVS() }, func() priority.Function { return priority.NewRandom() }, MostImminentOnly},
		{"ccedf", func() dvs.Algorithm { return dvs.NewCCEDF() }, func() priority.Function { return priority.NewRandom() }, MostImminentOnly},
		{"laedf", func() dvs.Algorithm { return dvs.NewLAEDF() }, func() priority.Function { return priority.NewRandom() }, MostImminentOnly},
		{"bas1", func() dvs.Algorithm { return dvs.NewLAEDF() }, func() priority.Function { return priority.NewPUBS() }, MostImminentOnly},
		{"bas2", func() dvs.Algorithm { return dvs.NewLAEDF() }, func() priority.Function { return priority.NewPUBS() }, AllReleased},
	}
	modes := []struct {
		name string
		mode FrequencyMode
	}{
		{"continuous", ContinuousFrequency},
		{"discrete", DiscreteFrequency},
		{"discrete-ceil", DiscreteCeilFrequency},
	}

	var b strings.Builder
	for _, s := range schemes {
		for _, m := range modes {
			res, err := Run(Config{
				System:        sys.Clone(),
				DVS:           s.alg(),
				Priority:      s.prio(),
				ReadyPolicy:   s.policy,
				FrequencyMode: m.mode,
				Hyperperiods:  2,
				Seed:          7,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, m.name, err)
			}
			fmt.Fprintf(&b, "=== %s %s ===\n%s", s.name, m.name, goldenResult(res))
		}
	}

	// A hand-built system whose largest graph has more than 64 nodes, with
	// fan-out, join and diamond shapes, so that per-instance ready sets span
	// several 64-bit words and nodes become ready at joins.
	wide := wideJoinSystem()
	for _, s := range []struct {
		name   string
		alg    dvs.Algorithm
		prio   priority.Function
		policy ReadyPolicy
		mode   FrequencyMode
	}{
		{"wide bas2", dvs.NewLAEDF(), priority.NewPUBS(), AllReleased, ContinuousFrequency},
		{"wide bas2", dvs.NewLAEDF(), priority.NewPUBS(), AllReleased, DiscreteFrequency},
		{"wide fifo", dvs.NewLAEDF(), priority.NewFIFO(), MostImminentOnly, ContinuousFrequency},
	} {
		res, err := Run(Config{
			System:        wide.Clone(),
			DVS:           s.alg,
			Priority:      s.prio,
			ReadyPolicy:   s.policy,
			FrequencyMode: s.mode,
			Hyperperiods:  2,
			Seed:          7,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", s.name, s.mode, err)
		}
		fmt.Fprintf(&b, "=== %s %s ===\n%s", s.name, s.mode, goldenResult(res))
	}
	checkGolden(t, "engine_schemes", b.String())
}

// wideJoinSystem returns a three-graph system at utilisation 0.7 (fmax 1 GHz):
//   - W (80 nodes, period 0.2 s): node 0 fans out to nodes 1..66; nodes
//     1..33 join into 67 and 34..66 into 68; 67 and 68 join into 69 (a
//     diamond over two joins); nodes 70..79 have no predecessors, and 79
//     follows 70.
//   - D (4 nodes, period 0.05 s): the diamond 0→{1,2}→3.
//   - J (5 nodes, period 0.1 s): 0..3 join into 4.
func wideJoinSystem() *taskgraph.System {
	wcet := func(i int) float64 { return float64((i*7919)%13+1) * 1e5 }
	w := taskgraph.NewGraph("W", 0.2)
	for i := 0; i < 80; i++ {
		w.AddNode(fmt.Sprintf("w%d", i), wcet(i))
	}
	for i := 1; i <= 66; i++ {
		w.AddEdge(0, taskgraph.NodeID(i))
	}
	for i := 1; i <= 33; i++ {
		w.AddEdge(taskgraph.NodeID(i), 67)
		w.AddEdge(taskgraph.NodeID(i+33), 68)
	}
	w.AddEdge(67, 69)
	w.AddEdge(68, 69)
	w.AddEdge(70, 79)

	d := taskgraph.NewGraph("D", 0.05)
	for i := 0; i < 4; i++ {
		d.AddNode(fmt.Sprintf("d%d", i), wcet(i+3)*10)
	}
	d.AddEdge(0, 1)
	d.AddEdge(0, 2)
	d.AddEdge(1, 3)
	d.AddEdge(2, 3)

	j := taskgraph.NewGraph("J", 0.1)
	for i := 0; i < 5; i++ {
		j.AddNode(fmt.Sprintf("j%d", i), wcet(i+5)*10)
	}
	for i := 0; i < 4; i++ {
		j.AddEdge(taskgraph.NodeID(i), 4)
	}

	sys := taskgraph.NewSystem(w, d, j)
	sys.ScaleToUtilization(0.7, 1e9)
	return sys
}
