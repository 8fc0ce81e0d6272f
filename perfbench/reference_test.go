package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"battsched/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite every reference rendering under testdata/ref")

// TestReferenceRenderings checks pool entry 1 (the paper's default seed) of
// each local workload against its committed rendering; with -update it
// regenerates the whole pool.
func TestReferenceRenderings(t *testing.T) {
	for name, lw := range localWorkloads {
		last := int64(1)
		if *update {
			last = int64(lw.pool)
		}
		for seed := int64(1); seed <= last; seed++ {
			spec := lw.spec(seed)
			spec.Parallel = parallel
			rep, err := experiments.Run(context.Background(), lw.experiment, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := experiments.FormatReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			path := refPath(filepath.Join("testdata", "ref"), name, seed)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s seed %d:\n%s\nwant:\n%s", name, seed, got, want)
			}
		}
	}
}
